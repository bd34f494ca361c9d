"""The test configuration itself: a failing Hypothesis test is reported like
any other failure, while library-side warnings still fail their tests."""

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
