"""The test configuration itself: a failing Hypothesis test is reported like
any other failure, while library-side warnings still fail their tests; the
test extra declares every distribution the test files import, and
``[project] dependencies`` every one the package imports."""

import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = '''
import numpy as np
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_passes():
    pass


def test_warns():
    np.float64(1.0) / np.float64(0.0)
'''


def test_failing_hypothesis_example_is_reported_and_the_run_goes_on(tmp_path):
    # the project's own warning filters, on a file of three tests, in a
    # directory of its own (Hypothesis writes its patches under the cwd)
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          "test_sample.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1 and "INTERNALERROR" not in out, out
    assert "Falsifying example: test_falsified(" in out, out
    assert "PASSED test_sample.py::test_passes" in out, out
    assert "FAILED test_sample.py::test_warns - RuntimeWarning" in out, out


def declared_distributions(keys=("dependencies", "test")):
    """Names of the distributions in the given lists of ``pyproject.toml``,
    by default ``dependencies`` and the ``test`` extra (read without
    ``tomllib``, which Python 3.10 lacks)."""
    text = PYPROJECT.read_text()
    lists = [re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S).group(1) for key in keys]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            for spec in re.findall(r'"([^"]+)"', "".join(lists))}


def third_party_imports(paths, local, nodes=lambda tree: tree.body):
    """Each top-level module that the files import from ``nodes`` of their
    syntax trees, bar the standard library's and ``local`` ones, with the
    first file that imports it."""
    imported = {}
    for path in sorted(paths):
        for node in nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    return {name: where for name, where in imported.items()
            if name not in sys.stdlib_module_names and name not in local}


def test_every_third_party_import_of_the_tests_is_declared():
    # a clean ``pip install .[test]`` must collect every test file: each
    # module a test file imports at its top level is the standard library's,
    # the package's, another test module, or a declared distribution
    tests = Path(__file__).resolve().parent
    local = {"decpotentials"} | {path.stem for path in tests.glob("*.py")}
    third_party = third_party_imports(tests.glob("*.py"), local)
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= set(third_party)
    missing = {name: where for name, where in third_party.items()
               if name.lower() not in declared_distributions()}
    assert not missing, missing


def test_every_third_party_import_of_the_package_is_a_dependency():
    # a plain ``pip install .`` must run the package: every module it
    # imports, at any depth of a file, is the standard library's, its own,
    # or in ``[project] dependencies``; the test extra does not count
    package = PYPROJECT.parent / "src" / "decpotentials"
    third_party = third_party_imports(package.glob("*.py"), {"decpotentials"}, ast.walk)
    assert {"numpy", "scipy"} <= set(third_party)
    missing = {name: where for name, where in third_party.items()
               if name.lower() not in declared_distributions(["dependencies"])}
    assert not missing, missing
