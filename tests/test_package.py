"""The public names: ``__all__``, the names README's library example imports
and the library functions the benchmark's tracer wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import decpotentials

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in decpotentials.__all__ if not hasattr(decpotentials, name)]
    assert missing == []


def test_readme_example_imports_are_exported():
    blocks = re.findall(r"from decpotentials import \(([^)]*)\)", README.read_text())
    names = {name.strip() for block in blocks for name in block.split(",")} - {""}
    assert names, "README has no library example"
    assert sorted(names - set(decpotentials.__all__)) == []


def test_traced_functions_resolve():
    # the benchmark's tracer wraps these library functions by name; a renamed
    # one would crash a traced benchmark run, which the test suite never runs
    path = README.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, _ in tracing.TRACED_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"decpotentials.{module}"),
                                       name, None))]
    assert missing == []
