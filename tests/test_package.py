"""The public names: ``__all__`` and the names README's library example imports."""

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
