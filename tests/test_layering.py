"""Layering rules, checked on the source with ``ast``.

The package imports only itself and the standard library, as
``dependencies = []`` in ``pyproject.toml`` promises.  No module of the
package imports a private (underscore) name of another:
an ``import`` that reaches into the package and binds an underscore name
fails the test.  In ``orders/linalg.py`` neither the rational half nor the
integer-lattice half uses a function of the other, so the two Green's
routes the suites cross-check stay independent.  ``orders/suite.py`` works
on the matrix backend's integer rows alone: it imports neither ``Fraction``
(nor ``fractions``) nor the conversions ``split``, ``join`` and ``mat_z``,
and reads none of them off a module it imports.  The backend modules of
``orders`` (``matrix``, ``acts`` and ``monoids``) are siblings: none imports
another, and what they share lives in the package itself.  The package
holds no ``assert`` statement: ``python -O`` drops them, so a verdict that
rested on one would differ there; a check verifies through its report.
Every public top-level function is named somewhere in the package outside
its own body, unless the benchmark's span tracer wraps it by name
(``TARGETS`` in ``perfbench/spans.py``): a helper only the tests call lives
in the tests.
Likewise every parameter with a default, of a public top-level function or
of a public class's constructor, is passed by some call in the package:
a value only the tests set is a constant.  ``cli.run(argv)`` is the one
exception; ``main``, the benchmark harness and the tests pass ``argv``.
Conversely, some call in the package omits each such parameter: a default
that every caller overrides is never used.

Importing the CLI and building its flag table, in a fresh ``python -I``,
loads of the package only ``indalg.cli`` and ``indalg.report``, and none
of ``dataclasses``, ``inspect``, ``fractions``, ``decimal``, ``json`` (with
its submodules), ``argparse``, ``gettext`` and ``locale`` unless a bare
interpreter already has: the first two, and the code ``@dataclass``
generates, were about half of the CLI's cold start, the backends no
subcommand of a process runs were over half of what was left, ``json``
about a fifth of the rest, and ``argparse`` with the ``gettext`` and
``locale`` its parser needed most of what was left after that.  A report
then loads only its own area: words, terms and counterexample for
``classify``, the catalog for ``catalog``, ``orders.monoids`` without
``fractions`` for ``ore-check``, and ``orders.acts`` without ``fractions``
or ``decimal`` for an act ``decompose`` or ``quotient``.  Reports escape
their strings with ``_json``'s escaper alone, so only one that reads a JSON
payload, or ``--params``, loads ``json``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import indalg

ROOT = Path(indalg.__file__).parent
MODULES = sorted(ROOT.rglob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Modules outside the package and the standard library that the
    absolute imports in source name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in names
                if name.split(".")[0] != "indalg"
                and name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_checker_flags_foreign_imports():
    assert foreign_imports("import numpy") == ["line 1: numpy"]
    assert foreign_imports("import os, numpy.linalg as la\n"
                           "from hypothesis import given") == [
        "line 1: numpy.linalg", "line 2: hypothesis"]
    assert foreign_imports("from __future__ import annotations\n"
                           "import itertools\nfrom fractions import Fraction\n"
                           "from indalg.orders import linalg\n"
                           "from . import acts\nfrom .linalg import rref") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_itself_and_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


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


def assert_statements(source: str) -> list[str]:
    """The lines of the ``assert`` statements in source."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_checker_flags_assert_statements():
    assert assert_statements("x = 1\nassert x\nif x:\n    assert x > 0, 'no'") == [
        "line 2", "line 4"]
    assert assert_statements("assertion = 'assert x'\n# assert x\n"
                             "self.assertEqual(1, 1)") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_holds_no_assert_statement(path):
    assert assert_statements(path.read_text()) == []


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


CONVERSIONS = ("Fraction", "fractions", "split", "join", "mat_z")


def forbidden_uses(source: str, names) -> list[str]:
    """``line n: name`` for each of names that an import in source names,
    as the module or as a name taken from it, under any alias, and
    ``line n: module.name`` for each it reads as an attribute of a name
    that it imports."""
    tree = ast.parse(source)
    bound, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            base = (node.module or "").split(".") if isinstance(node, ast.ImportFrom) else []
            for alias in node.names:
                out += [f"line {node.lineno}: {part}"
                        for part in base + alias.name.split(".") if part in names]
                bound.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            out.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return out


def test_checker_flags_fraction_and_conversions():
    assert forbidden_uses("from fractions import Fraction\n"
                          "from .linalg import split as s, solvable\n",
                          CONVERSIONS) == [
        "line 1: fractions", "line 1: Fraction", "line 2: split"]
    assert forbidden_uses("import fractions\nfrom . import linalg\n"
                          "x = linalg.join(r, d)\ny = fractions.Fraction(1)\n",
                          CONVERSIONS) == [
        "line 1: fractions", "line 3: linalg.join", "line 4: fractions.Fraction"]
    assert forbidden_uses("from indalg.orders.linalg import mat_z as z\n",
                          CONVERSIONS) == ["line 1: mat_z"]
    assert forbidden_uses("from .linalg import solvable\nfrom . import matrix\n"
                          "words = ', '.join(s.split())\nmatrix.show(m)\n",
                          CONVERSIONS) == []


def test_the_suites_build_no_fraction_and_call_no_conversion():
    source = (ROOT / "orders" / "suite.py").read_text()
    assert forbidden_uses(source, CONVERSIONS) == []


BACKENDS = ("matrix", "acts", "monoids")


def sibling_imports(source: str, siblings=BACKENDS) -> list[str]:
    """The siblings that the imports in source, a module of ``orders``,
    name, relatively (``from .matrix import f``, ``from . import matrix``,
    ``from ..orders import matrix``) or absolutely."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level <= 2:
            base = ("", "indalg.orders", "indalg")[node.level]
            module = ".".join(filter(None, [base, node.module]))
            paths = [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        else:
            continue
        named = {p.split(".")[2] for p in paths
                 if p.startswith("indalg.orders.") and p.split(".")[2] in siblings}
        out += [f"line {node.lineno}: {name}" for name in sorted(named)]
    return out


def test_checker_flags_sibling_imports():
    assert sibling_imports("from .matrix import randints") == ["line 1: matrix"]
    assert sibling_imports("from . import acts, randints\n"
                           "import indalg.orders.monoids as mo\n"
                           "from indalg.orders.matrix import rref\n"
                           "from indalg.orders import acts") == [
        "line 1: acts", "line 2: monoids", "line 3: matrix", "line 4: acts"]
    assert sibling_imports("from ..orders import matrix") == ["line 1: matrix"]
    assert sibling_imports("from __future__ import annotations\nimport random\n"
                           "from . import randints\nfrom .linalg import rref\n"
                           "from ..report import fmt_mat\nfrom ..terms import acts\n"
                           "import indalg.orders\nfrom ... import matrix") == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_orders_backends_import_no_sibling(backend):
    source = (ROOT / "orders" / f"{backend}.py").read_text()
    assert sibling_imports(source, set(BACKENDS) - {backend}) == []


SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_functions(source: str) -> set[tuple[str, str]]:
    """(module, function) for each entry of the ``TARGETS`` literal in a
    spans-like source."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            targets = ast.literal_eval(node.value)
            return {(mod, fn) for mod, fns in targets.items() for fn in fns}
    raise LookupError("no TARGETS assignment")


def unreferenced(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module.f`` for each public top-level function f of the sources
    (module name -> source) that no name or attribute outside f's own body
    mentions, unless (module, f) is exempt.  Matching is by name alone."""
    defs, uses = [], {}
    for mod, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, ast.FunctionDef) and not owner.startswith("_"):
                defs.append((mod, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name:
                    uses.setdefault(name, set()).add((mod, owner))
    return [f"{mod}.{fn}" for mod, fn in defs
            if (mod, fn) not in exempt and not uses.get(fn, set()) - {(mod, fn)}]


def test_checker_flags_unreferenced_functions():
    sources = {
        "a": "def used(x): return helper(x)\n"
             "def helper(x): return helper(x - 1) if x else 0\n"
             "def _private(): pass\n"
             "def traced(): pass\n"
             "def lonely(): return lonely\n",
        "b": "from . import a\n"
             "class C:\n    def lonely(self): pass\n"
             "RUN = a.used\n",
    }
    assert unreferenced(sources) == ["a.traced", "a.lonely"]
    assert unreferenced(sources, {("a", "traced")}) == ["a.lonely"]
    assert traced_functions('X = 1\nTARGETS = {"a": ("traced", "C.lonely")}\n') == {
        ("a", "traced"), ("a", "C.lonely")}


def test_every_public_function_has_a_caller_in_the_package():
    sources = {".".join(p.relative_to(ROOT).with_suffix("").parts): p.read_text()
               for p in MODULES}
    assert unreferenced(sources, traced_functions(SPANS.read_text())) == []


def _defaulted(stmt) -> tuple[list[str], list[str]]:
    """The constructor parameters of a top-level function or class, in
    order (keyword-only ones last), and those with a default.  A class's
    are those of the first ``__init__`` or ``__new__`` it defines, after
    ``self`` or ``cls``, or else its annotated fields, as a NamedTuple or a
    dataclass takes them; ``field(...)`` gives a default only with
    ``default`` or ``default_factory``."""
    if isinstance(stmt, ast.ClassDef):
        init = next((s for s in stmt.body if isinstance(s, ast.FunctionDef)
                     and s.name in ("__init__", "__new__")), None)
        if init is None:
            fields = [s for s in stmt.body if isinstance(s, ast.AnnAssign)]
            return ([f.target.id for f in fields],
                    [f.target.id for f in fields if _field_default(f.value)])
        stmt = init
    args = stmt.args
    params = [a.arg for a in args.posonlyargs + args.args]
    if stmt.name in ("__init__", "__new__"):
        params = params[1:]  # self or cls
    defaulted = params[len(params) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return params + [a.arg for a in args.kwonlyargs], defaulted


def _defaults_and_calls(sources: dict[str, str], exempt):
    """(module, f, index, p) for each parameter p with a default of a public
    top-level function or class f of the sources, unless (module, f) is
    exempt, and the calls in the sources by the name they call."""
    found, calls = [], {}
    for mod, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and (mod, stmt.name) not in exempt):
                params, defaulted = _defaulted(stmt)
                found += [(mod, stmt.name, params.index(p), p) for p in defaulted]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return found, calls


def _passes(call, index: int, param: str):
    """True if call surely passes the parameter (by position or keyword),
    False if it surely omits it, None if ``*args`` or ``**kwargs`` may do
    either."""
    if any(k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
        return None
    if len(call.args) > index:
        return True
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    return False


def _field_default(value) -> bool:
    if (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"):
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def unpassed_defaults(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module.f(p)`` for each parameter p with a default of a public
    top-level function or class f of the sources (module name -> source)
    that no call of the name f passes, by position or by keyword, unless
    (module, f) is exempt.  Matching is by name alone; a call with ``*args``
    or ``**kwargs`` passes every parameter."""
    found, calls = _defaults_and_calls(sources, exempt)
    return [f"{mod}.{fn}({p})" for mod, fn, i, p in found
            if all(_passes(c, i, p) is False for c in calls.get(fn, ()))]


def always_passed_defaults(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module.f(p)`` for each parameter p with a default of a public
    top-level function or class f of the sources that every call of the
    name f passes, unless (module, f) is exempt: a default no call relies
    on.  Matching is by name alone; a call with ``*args`` or ``**kwargs``
    may omit every parameter it does not name."""
    found, calls = _defaults_and_calls(sources, exempt)
    return [f"{mod}.{fn}({p})" for mod, fn, i, p in found
            if all(_passes(c, i, p) is True for c in calls.get(fn, ()))]


def test_checker_flags_unpassed_defaults():
    sources = {
        "a": "def f(x, y=1, *, z=2): return f(x, z=3)\n"
             "def g(x, k=0): return x\n"
             "def _h(x=0): pass\n"
             "class H:\n    def __init__(self, pins=None): pass\n"
             "    def lookup(self, w, cache=True): pass\n"
             "class N(tuple):\n    __slots__ = ()\n"
             "    def __new__(cls, items, tag=None, *, n=0): pass\n",
        "b": "from dataclasses import dataclass\nfrom . import a\n"
             "@dataclass\nclass M:\n    name: str\n    fmt: object = str\n"
             "    size: int = 0\n    tags: list = field(kw_only=True)\n"
             "    notes: list = field(default_factory=list)\n"
             "M('m', size=1, tags=[])\na.H()\na.g(*[1, 2])\na.N((), n=1)\n",
    }
    assert unpassed_defaults(sources) == ["a.f(y)", "a.H(pins)", "a.N(tag)",
                                          "b.M(fmt)", "b.M(notes)"]
    assert unpassed_defaults(sources, {("a", "f"), ("b", "M")}) == ["a.H(pins)",
                                                                  "a.N(tag)"]
    assert unpassed_defaults({"c": "def k(x=0): pass\nk(1)\n"}) == []


def test_every_default_is_passed_by_a_caller_in_the_package():
    sources = {".".join(p.relative_to(ROOT).with_suffix("").parts): p.read_text()
               for p in MODULES}
    assert unpassed_defaults(sources, {("cli", "run")}) == []


def test_checker_flags_always_passed_defaults():
    sources = {
        "a": "def f(x, y=1, *, z=2): return f(x, 2, z=3)\n"
             "def g(x, k=0, m=None): return g(x, m=1) or g(x, 1)\n"
             "def _h(x=0): pass\n"
             "class H:\n    def __init__(self, pins=None): pass\n"
             "def s(x, k=0): return s(*x) or s(x, **{})\n"
             "class N(tuple):\n    def __new__(cls, items, tag=None): pass\n",
        "b": "from dataclasses import dataclass\nfrom . import a\n"
             "@dataclass\nclass M:\n    name: str\n    fmt: object = str\n"
             "    size: int = 0\n"
             "M('m', str, size=1)\nM('n', fmt=repr)\na.H(pins={})\n"
             "a._h(1)\na.s([1], k=2)\na.N((), 'x')\n",
    }
    assert always_passed_defaults(sources) == [
        "a.f(y)", "a.f(z)", "a.H(pins)", "a.N(tag)", "b.M(fmt)"]
    assert always_passed_defaults(sources, {("a", "f"), ("a", "H")}) == [
        "a.N(tag)", "b.M(fmt)"]
    assert always_passed_defaults({"c": "def k(x=0): pass\nk(1)\nk()\n"}) == []


def test_every_default_is_omitted_by_a_caller_in_the_package():
    sources = {".".join(p.relative_to(ROOT).with_suffix("").parts): p.read_text()
               for p in MODULES}
    assert always_passed_defaults(sources) == []


JSON = {"json", "json.decoder", "json.encoder", "json.scanner"}
SLOW = ("dataclasses", "inspect", "fractions", "decimal", *sorted(JSON),
        "argparse", "gettext", "locale")
_LOADED = f"""\
import os, sys
sys.path.insert(0, sys.argv[1])
if len(sys.argv) > 2:
    import indalg.cli
    indalg.cli.build_parser()
    if len(sys.argv) > 3:
        indalg.cli.run([*sys.argv[3:], "--out", os.devnull])
print(*(m for m in sys.modules if m in {SLOW!r} or m.startswith("indalg.")))
"""


def _slow_imports_loaded(import_cli: bool, *argv: str) -> set[str]:
    """Which of ``SLOW`` and the package's modules a fresh ``python -I``
    has loaded, after importing the CLI and building its flag table if
    import_cli, and then running the report argv asks for, if any."""
    command = [sys.executable, "-I", "-c", _LOADED, str(ROOT.parent)]
    proc = subprocess.run(command + ["cli"] * import_cli + list(argv),
                          capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.split())


CLI = {"indalg.cli", "indalg.report"}


def test_cli_cold_start_loads_no_backend():
    assert _slow_imports_loaded(True) - _slow_imports_loaded(False) == CLI


@pytest.mark.parametrize("argv,area", [
    (["classify"], {"indalg.counterexample", "indalg.terms", "indalg.words"}),
    (["catalog", "--check", "clone"], {"indalg.catalog"}),
    (["ore-check"], {"indalg.orders", "indalg.orders.monoids"}),
    (["catalog", "--kind", "rank0", "--params", '{"size": 2}', "--check", "clone"],
     {"indalg.catalog"} | JSON),
    (["decompose", "--backend", "act"], {"indalg.orders", "indalg.orders.acts"}),
    (["quotient", "eq", "--backend", "act"], {"indalg.orders", "indalg.orders.acts"}),
], ids=["classify", "catalog", "ore-check", "catalog-params", "decompose-act",
        "quotient-act"])
def test_a_report_loads_only_its_own_area(argv, area):
    assert _slow_imports_loaded(True, *argv) - _slow_imports_loaded(False) == CLI | area
