"""Layering rules, checked on the source with ``ast``.

No module of the package imports a private (underscore) name of another:
an ``import`` that reaches into the package and binds an underscore name
fails the test.  In ``orders/linalg.py`` neither the rational half nor the
integer-lattice half uses a function of the other, so the two Green's
routes the suites cross-check stay independent.
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


LINALG = ROOT / "orders" / "linalg.py"
HALVES = ("# --- rational routines", "# --- integer lattice routines")


def cross_half_uses(source: str) -> list[str]:
    """``f -> g`` for each top-level function f of one half of a linalg-like
    source that names a top-level function g of the other half.  A half
    runs from its ``HALVES`` comment to the next one or the end; functions
    before the first are shared by both."""
    starts = [next(n for n, line in enumerate(source.splitlines(), 1)
                   if line.startswith(marker)) for marker in HALVES]
    half = {node.name: (sum(node.lineno > s for s in starts), node)
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}
    out = []
    for name, (side, node) in half.items():
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id in half and side
                    and half[sub.id][0] not in (0, side)):
                out.append(f"{name} -> {sub.id}")
    return out


def test_checker_flags_cross_half_uses():
    source = "\n".join([
        "def shape(a): return len(a)",
        "# --- rational routines",
        "def rank(a): return len(hnf(a)) + shape(a)",
        "def solve(a): return rank(a)",
        "# --- integer lattice routines",
        "def hnf(a): return shape(a)",
        "def kernel(a): return list(map(solve, a))",
    ])
    assert cross_half_uses(source) == ["rank -> hnf", "kernel -> solve"]
    assert cross_half_uses(source.replace("hnf(a)) +", "a) +")
                           .replace("map(solve", "map(hnf")) == []


def test_linalg_halves_do_not_use_each_other():
    source = LINALG.read_text()
    assert all(marker in source for marker in HALVES)
    assert cross_half_uses(source) == []
