"""The input contract, fuzzed: every run of ``cli.run`` ends in exit 0 or 1
with a canonical JSON report on stdout, or in exit 2 with a usage error on
stderr, and never in an exception."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st
from report_json import canonical_report

from indalg import cli

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
    """Exit status, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, stdin=""):
    code, out, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, stdin)
    else:
        assert err == "", (argv, stdin)
        canonical_report(out)
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
    assert code in (0, 1)


@settings(max_examples=40)
@given(samples=st.integers(-2, 40), terms=st.integers(-2, 6),
       depth=st.integers(-2, 14), seed=st.integers(-(2**70), 2**70))
@example(samples=1, terms=1, depth=12, seed=0)
@example(samples=0, terms=-1, depth=13, seed=-1)
def test_verify_counterexample_flags_keep_the_contract(samples, terms, depth, seed):
    argv = ["verify-counterexample", "--samples", str(samples), "--terms", str(terms),
            "--depth", str(depth), "--seed", str(seed)]
    code = check_contract(argv)
    assert (code == 2) == (min(samples, terms, depth) < 1 or depth > 12
                           or (depth == 1 and terms > 3))
