"""The input contract, fuzzed: every run of ``cli.run`` ends in exit 0 or 1
with a canonical JSON report on stdout, or in exit 2 with a usage error on
stderr, and never in an exception.  No check of a report passes on an
empty tested population: no samples, terms, refutations or pairs.  No run
leaves a reference cycle behind."""

import gc
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from report_json import canonical_report

from indalg import catalog, cli

# the term alphabet: heads, separators, word syntax, the extras int() would
# accept, a digit that str.isdigit accepts and int() refuses, and spaces
_TOKENS = ["g(", "nu(", "x", "z", ",", ")", "*", "^", "-", "_", "+", "²",
           " ", "  ", *"0123456789"]
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join)
_INDEX = st.one_of(st.sampled_from(["1", "2", "3", "0", "10", "1_0", "+2",
                                    "-1", "", "²"]),
                   st.integers(0, 10**25).map(str))
_COEFF = st.lists(
    st.builds(lambda g, e: f"z{g}" + (f"^{e}" if e else ""),
              _INDEX, st.one_of(st.just(""), _INDEX)),
    min_size=1, max_size=3,
).map("*".join) | st.sampled_from(["1", " z3 ", "", "z", "x1"])
_TERM = st.recursive(
    _INDEX.map(lambda i: f"x{i}"),
    lambda kids: st.one_of(
        st.builds(lambda c, t: f"nu({c}, {t})", _COEFF, kids),
        st.builds(lambda a, b: f"g({a},{b})", kids, kids),
    ),
    max_leaves=8,
)


def run(argv, stdin=""):
    """Exit status, stdout and stderr of one in-process run, which must
    leave no cyclic garbage: with the collector off from an empty gen 0 on,
    gen 0 holds everything the run made, and a gen-0 collection after it
    finds nothing."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect(0)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        assert gc.collect(0) == 0, (argv, stdin)
    finally:
        sys.stdin = saved
        if enabled:
            gc.enable()
    return code, out.getvalue(), err.getvalue()


# the detail keys that count a check's tested population
POPULATION = ("samples", "nonvacuous", "terms", "refuted", "pairs_checked")


def check_contract(argv, stdin=""):
    code, out, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, stdin)
    else:
        assert err == "", (argv, stdin)
        for check in canonical_report(out)["checks"]:
            if check["outcome"] == "pass":
                empty = [k for k in POPULATION if check["details"].get(k, 1) in (0, [])]
                assert not empty, (argv, stdin, check)
    return code


@settings(max_examples=250)
@given(st.lists(st.one_of(_SOUP, _TERM), max_size=6))
@example(["nu(z1_0, x1)", "nu(z1^+1, g(x1, x2))", "nu(z+3, x1)"])
@example(["g(" * 20 + "x1" + ", x1)" * 20])  # an h-index too long to print
@example(["nu(z1, " * 300 + "x1" + ")" * 300])  # nested past MAX_NESTING
@example(["nu(z99999999999999999999999^-99999999999999999999, x1)"])
@example(["x" + "1" * 5000])  # a variable index past the print limit
def test_classify_payloads_keep_the_contract(terms):
    code = check_contract(["classify", "--input", "-"], json.dumps({"terms": terms}))
    assert code in (0, 1) if terms else code == 2  # an empty payload is a usage error


@settings(max_examples=40)
@given(samples=st.integers(-2, 40), terms=st.integers(-2, 6),
       depth=st.integers(-2, 14), seed=st.integers(-(2**70), 2**70))
@example(samples=1, terms=1, depth=12, seed=0)
@example(samples=0, terms=-1, depth=13, seed=-1)
@example(samples=1, terms=5, depth=3, seed=7)  # every term has a constant prefix
def test_verify_counterexample_flags_keep_the_contract(samples, terms, depth, seed):
    argv = ["verify-counterexample", "--samples", str(samples), "--terms", str(terms),
            "--depth", str(depth), "--seed", str(seed)]
    code = check_contract(argv)
    assert (code == 2) == (min(samples, terms, depth) < 1 or depth > 12
                           or (depth == 1 and terms > 3))


# --- payloads and flags of the other subcommands ------------------------------

# an integer field, now and then a value of another JSON type
_JINT = st.one_of(st.integers(-2, 9), st.sampled_from([True, 2.5, "3", None, [1]]))
_ENTRY = st.one_of(st.integers(-4, 4), st.sampled_from(
    ["1/2", "-2/3", "0", "7", "x", "1/0", "1e3", "1e5000", 0.5, False, None]))


# act shifts and quotient fields far outside the small draws: wide enough that
# a walk over the exponents between them cannot end, and as long as a report
# may print, so that a result of twice the value may not be
_LONGEST = 10**4300 - 1
_WIDE = st.sampled_from([10**12, -(10**12), _LONGEST, -_LONGEST])
_QINT = st.one_of(_JINT, _WIDE)


def _rows(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


# mostly square, now and then ragged, empty or not a list
_MATRIX = st.one_of(st.integers(1, 3).flatmap(lambda n: _rows(n, _ENTRY)),
                    st.integers(1, 3).flatmap(lambda n: _rows(n, st.integers(-4, 4))),
                    st.lists(st.lists(_ENTRY, max_size=3), max_size=3),
                    st.sampled_from([7, "1/2", {}]))


def _act(n, entry=st.integers(-1, 3)):
    """An act endomorphism on n generators; a target is now and then 0."""
    return st.fixed_dictionaries(
        {"shifts": st.lists(entry, min_size=n, max_size=n),
         "targets": st.lists(st.sampled_from([*range(1, n + 1)] * 3 + [0]),
                             min_size=n, max_size=n)},
        optional={"flavor": st.sampled_from(["A", "B", "A", "B", "C", 1])})


_ACT = st.integers(1, 3).flatmap(
    lambda n: _act(n, st.one_of(st.integers(-3, 3), _JINT, _WIDE)))


def _pair(of_size):
    """{"a": ..., "b": ...} of one size, most often a readable pair."""
    return st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries({"a": of_size(n), "b": of_size(n)}))


def _quot(fields):
    return st.fixed_dictionaries({f: st.one_of(st.integers(-2, 4), _WIDE)
                                  for f in fields})


def _maybe(key_values):
    """A dict holding some of the given keys."""
    return st.fixed_dictionaries({}, optional=key_values)


# (q, dim) pairs cheap enough to check; q=5 dim=2 takes seconds a witness
_FIELD = st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (4, 1), (3, 0),
                          (3, 3), (7, 1), ("3", 1), (3, True)])
_CATALOG_PARAMS = {
    "rank0": _maybe({"size": _JINT}),
    "linear": _FIELD.flatmap(lambda qd: _maybe({
        "q": st.just(qd[0]), "dim": st.just(qd[1]),
        "a0": st.lists(st.lists(_JINT, max_size=3), max_size=2)})),
    "affine": _FIELD.map(lambda qd: {"q": qd[0], "dim": qd[1]}),
    "q_homog_field": _maybe({"q": st.sampled_from([2, 3, 5, 4, 1.0])}),
    "group_action": st.integers(1, 6).flatmap(lambda n: _maybe({
        "size": st.sampled_from([n, n, 9, "5"]),
        "generators": st.lists(st.one_of(st.permutations(range(n)),
                                         st.lists(_JINT, max_size=n)), max_size=2),
        "constants": st.lists(st.one_of(st.integers(0, n), _JINT), max_size=3)})),
    "exceptional": st.just({}),
    "semilattice": _maybe({"size": _JINT}),
    "no-such-kind": st.just({}),
}


@st.composite
def _catalog_argv(draw):
    kind = draw(st.sampled_from(sorted(_CATALOG_PARAMS)))
    params = draw(st.one_of(_CATALOG_PARAMS[kind].map(json.dumps),
                            st.sampled_from(["[1]", "{", "3", '{"bogus": 1}'])))
    argv = ["catalog", "--kind", kind, "--params", params,
            "--check", draw(st.sampled_from(["exchange", "witness", "clone", "endos"]))]
    variant = draw(st.sampled_from([None, "plus", "standard", "bogus"]))
    return argv + (["--variant", variant] if variant else [])


@settings(max_examples=150)
@given(_catalog_argv())
@example(["catalog", "--kind", "group_action", "--params",
          '{"size": 3, "generators": [[1, 2, 0]], "constants": [0]}', "--check", "endos"])
def test_catalog_params_keep_the_contract(argv):
    check_contract(argv)


def test_catalog_params_draw_every_kind():
    assert catalog.KINDS.keys() <= _CATALOG_PARAMS.keys()


_PAYLOADS = {
    ("decompose", "matrix"): _maybe({"alpha": _MATRIX}),
    ("decompose", "act"): _maybe({"alpha": _ACT}),
    ("greens", "matrix"): st.one_of(
        _maybe({"a": _MATRIX, "b": _MATRIX}),
        _pair(lambda n: _rows(n, st.one_of(st.integers(-4, 4), _ENTRY)))),
    ("greens", "act"): st.one_of(_maybe({"a": _ACT, "b": _ACT}), _pair(_act)),
    ("quotient", "matrix"): st.one_of(
        _maybe({"p": _maybe({"t": _QINT, "v": st.lists(_QINT, max_size=3)}),
                "q": _maybe({"t": _QINT, "v": st.lists(_QINT, max_size=3)}),
                "v": st.lists(_QINT, max_size=3)}),
        st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
            e: st.fixed_dictionaries({
                "t": st.one_of(st.integers(-2, 4), _WIDE),
                "v": st.lists(st.one_of(st.integers(-4, 4), _WIDE),
                              min_size=n, max_size=n)})
            for e in "pq"}))),
    ("quotient", "act"): st.one_of(
        _maybe({"p": _maybe({"k": _QINT, "m": _QINT, "i": _QINT}),
                "q": _maybe({"k": _QINT, "m": _QINT, "i": _QINT}),
                "m": _QINT, "i": _QINT}),
        st.fixed_dictionaries({"p": _quot("kmi"), "q": _quot("kmi")}),
        _quot("mi")),
}
_MODE_FLAGS = {
    "decompose": ("--mode", ["left", "right", "straight"]),
    "greens": ("--side", ["R", "L", "Rstar", "Lstar"]),
}


@st.composite
def _payload_run(draw):
    command, backend = draw(st.sampled_from(sorted(_PAYLOADS)))
    payload = draw(_PAYLOADS[command, backend])
    if command == "quotient":
        argv = ["quotient", draw(st.sampled_from(["eq", "embed"]))]
    else:
        flag, choices = _MODE_FLAGS[command]
        argv = [command, flag, draw(st.sampled_from(choices))]
    stdin = draw(st.one_of(st.just(json.dumps(payload)),
                           st.sampled_from(["", "[]", "{", '"x"'])))
    return argv + ["--backend", backend, "--input", "-"], stdin


@settings(max_examples=250)
@given(_payload_run())
@example((["decompose", "--mode", "straight", "--backend", "matrix", "--input", "-"],
          '{"alpha": [[1, 1], [0, 0]]}'))
@example((["greens", "--side", "Lstar", "--backend", "act", "--input", "-"],
          '{"a": {"shifts": [0, -1], "targets": [2, 2]}, '
          '"b": {"flavor": "A", "shifts": [1, 0], "targets": [1, 2]}}'))
# a result of twice a 4300-digit value is too long to print: a usage error
@example((["decompose", "--mode", "left", "--backend", "act", "--input", "-"],
          json.dumps({"alpha": {"flavor": "A", "shifts": [-_LONGEST, _LONGEST],
                                "targets": [1, 2]}})))
@example((["quotient", "eq", "--backend", "act", "--input", "-"],
          json.dumps({"p": {"k": _LONGEST, "m": -_LONGEST, "i": 1},
                      "q": {"k": 0, "m": 0, "i": 1}})))
# a shift of 10^12: the kernel route must not walk the exponents up to it
@example((["greens", "--side", "R", "--backend", "act", "--input", "-"],
          '{"a": {"shifts": [1000000000000, 0], "targets": [1, 2]}, '
          '"b": {"shifts": [0, 0], "targets": [1, 1]}}'))
def test_order_payloads_keep_the_contract(run_):
    argv, stdin = run_
    check_contract(argv, stdin)


# well-typed act quotient fields, a generator index now and then 0 or below:
# the index is 1-based, and embed's exponent is nonnegative
@settings(max_examples=60)
@given(action=st.sampled_from(["eq", "embed"]), k=st.integers(0, 3),
       m=st.integers(-2, 3), i=st.integers(-3, 3), j=st.integers(-3, 3))
@example(action="eq", k=0, m=0, i=0, j=-5)
@example(action="embed", k=0, m=0, i=0, j=1)
def test_act_quotient_index_below_one_is_a_usage_error(action, k, m, i, j):
    if action == "eq":
        payload = {"p": {"k": k, "m": m, "i": i}, "q": {"k": 0, "m": m, "i": j}}
        refused = min(i, j) < 1
    else:
        payload = {"m": m, "i": i}
        refused = m < 0 or i < 1
    code = check_contract(["quotient", action, "--backend", "act", "--input", "-"],
                          json.dumps(payload))
    assert (code == 2) == refused


@settings(max_examples=60)
@given(monoid=st.sampled_from(["posint", "free2"]), depth=st.integers(-1, 9))
def test_ore_check_flags_keep_the_contract(monoid, depth):
    code = check_contract(["ore-check", "--monoid", monoid, "--depth", str(depth)])
    assert (code == 2) == (depth < 1 or (monoid == "free2" and depth > 7))


@settings(max_examples=60)
@given(backend=st.sampled_from(["matrix", "act"]), n=st.integers(-1, 5),
       samples=st.integers(-1, 4), seed=st.integers(-(2**70), 2**70))
@example(backend="act", n=2, samples=1, seed=2)  # the kernel hypothesis never holds
def test_suite_flags_keep_the_contract(backend, n, samples, seed):
    code = check_contract(["suite", "--backend", backend, "--n", str(n),
                           "--samples", str(samples), "--seed", str(seed)])
    ranks = range(1, 5) if backend == "matrix" else range(1, 4)
    assert (code == 2) == (samples < 1 or n not in ranks)


# --- flags a subcommand does not read -----------------------------------------

# per subcommand, the flag groups of an argv it accepts and runs quickly
_QUICK = {
    "verify-counterexample": [["--samples", "1"], ["--terms", "1"], ["--depth", "2"]],
    "classify": [],
    "catalog": [["--kind", "rank0"], ["--check", "clone"]],
    "decompose": [["--mode", "right"]],
    "greens": [["--side", "L"]],
    "quotient": [["embed"]],
    "ore-check": [["--depth", "2"]],
    "suite": [["--samples", "1"]],
}


@st.composite
def _unread_run(draw):
    """A quick argv with one flag its subcommand does not read, given whole
    or with '=', before, between or after its other groups."""
    command = draw(st.sampled_from(sorted(_QUICK)))
    options = cli.build_parser()[command][0]
    flag = draw(st.sampled_from([f"--{d}" for d in cli._COMMON
                                 if f"--{d}" not in options]))
    value = draw(st.sampled_from(["0", "3", "-1", "-", "x.json"]))
    groups = list(_QUICK[command])
    groups.insert(draw(st.integers(0, len(groups))),
                  draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    return [command, *(t for group in groups for t in group)]


def test_quick_argv_are_accepted():
    for command, groups in _QUICK.items():
        assert check_contract([command, *(t for g in groups for t in g)]) == 0, command


@pytest.mark.parametrize("command", sorted(_QUICK))
def test_each_handler_reads_every_flag_its_subcommand_accepts(command, capsys):
    """The flags a subcommand accepts, besides --format and --out (which run
    reads), are the ones its handler reads: none more, none fewer."""
    args = cli.parse([command, *(t for g in _QUICK[command] for t in g)])
    read = set()

    class Recording:
        def __getattr__(self, name):
            read.add(name)
            return getattr(args, name)

    args.handler(Recording())
    options, _, positional = cli.build_parser()[command]
    accepted = {dest for dest, *_ in options.values()} - {"help", "format", "out"}
    assert read - {"command", "handler"} == accepted | ({positional[0]} if positional else set())


@settings(max_examples=80)
@given(_unread_run())
@example(["catalog", "--depth", "99", "--kind", "rank0", "--check", "clone"])
@example(["suite", "--samples", "1", "--input=-"])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv):
    # the message may name the value instead: as argparse does, an unknown
    # option takes no value, so 'quotient --seed 0 embed' refuses '0' as the
    # action
    assert check_contract(argv) == 2
