"""The package imports only itself and the standard library, and never
`random`: dworkcong is pure-stdlib and its results are exact and
reproducible."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dworkcong").glob("*.py"))


def imports(path):
    """(level, top-level module name) of every import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, (node.module or "").split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    for level, name in imports(path):
        assert level > 0 or name in sys.stdlib_module_names, (path.name, name)
        assert name != "random", path.name


def test_the_package_is_found():
    assert SOURCES  # an empty glob would pass the test above vacuously
