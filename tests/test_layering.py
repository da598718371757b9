"""No module of the package imports a private (underscore) name of another.

Each module under ``src/indalg`` is parsed with ``ast``; an ``import``
that reaches into the package and binds an underscore name fails the test.
"""

import ast
from pathlib import Path

import pytest

import indalg

ROOT = Path(indalg.__file__).parent
MODULES = sorted(ROOT.rglob("*.py"))


def private_imports(source: str) -> list[str]:
    """Underscore names bound by the package-internal imports in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "indalg"
            names = [a.name for a in node.names] if internal else []
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "indalg"]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in names
                if any(part.startswith("_") for part in name.split("."))]
    return out


def test_checker_flags_private_imports():
    assert private_imports("from .acts import compose, _class_structure") == [
        "line 1: _class_structure"]
    assert private_imports("from indalg.terms import _NODES") == ["line 1: _NODES"]
    assert private_imports("import indalg._x") == ["line 1: indalg._x"]
    assert private_imports("from __future__ import annotations\n"
                           "from os import _exit\nfrom . import acts") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text()) == []
