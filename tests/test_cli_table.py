"""The table path of ``cli.run`` is argparse's parse.

``cli._fast_parse`` reads argv made of a subcommand and exact ``--flag
value`` pairs from a table derived from ``cli.build_parser()``.  Whenever it
returns a namespace, ``parse_args`` returns an equal one; whenever it
returns None, ``cli.run`` ends as a direct ``parse_args`` call does when that
call exits (with its status and its text), since it makes that very call.
"""

import argparse
import io
import runpy
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indalg import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _subparsers():
    parser = cli.build_parser()
    (action,) = (a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


COMMANDS = sorted(_subparsers())
OPTIONS = sorted({o for sub in _subparsers().values()
                  for o in sub._option_string_actions})
# option-like and value-like tokens argparse reads in its own ways
ODD_FLAGS = ["--sam", "--se", "--seed=3", "--n=2", "-h", "--", "-x"]
INT_TEXTS = ["0", "3", "10", "-5", "-1.5", "1_0", "+4", "٣", " 4", "", "x"]
TEXTS = ["-", "", " -x", "-x", "-x y", "-5", "-5x", "all", "rank0", "plus",
         '{"size": 2}', '{"terms": []}', "[1", "/nonexistent/x.json"]
TOKENS = COMMANDS + OPTIONS + ODD_FLAGS + INT_TEXTS + TEXTS + ["json", "Q"]


def _values(action):
    if action.choices is not None:
        return sorted(action.choices) + ["Q"]  # and one that no choices hold
    return INT_TEXTS if action.type is int else TEXTS


def _requests(cmd):
    """cmd and flag/value pairs: mostly its own flags with values of their
    kind, now and then any token in either place."""
    actions = _subparsers()[cmd]._option_string_actions
    own = st.sampled_from(sorted(actions)).flatmap(
        lambda o: st.tuples(st.just(o), st.sampled_from(_values(actions[o]))))
    stray = st.tuples(st.sampled_from(OPTIONS + ODD_FLAGS), st.sampled_from(TOKENS))
    return st.lists(st.one_of(own, own, own, stray), max_size=4).map(
        lambda pairs: [cmd] + [t for pair in pairs for t in pair])


_ARGV = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=7),
                  st.sampled_from(COMMANDS).flatmap(_requests),
                  st.sampled_from(COMMANDS).flatmap(_requests))


def argparse_outcome(argv):
    """The namespace ``parse_args`` returns, or its exit status with what it
    wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def run_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(_ARGV)
@example(["catalog", "--kind", "rank0", "--params", '{"size": 2}', "--check", "endos"])
@example(["verify-counterexample", "--seed", "-5", "--terms", "1_0"])
@example(["classify", "--input", "-"])
@example(["greens", "--side", "Rstar", "--side", "L"])
@example(["suite", "--samples", "٣", "--n", "+4"])
@example(["catalog", "--kind", " -x"])
def test_the_table_path_is_argparses_parse(argv):
    fast = cli._fast_parse(argv)
    reference = argparse_outcome(argv)
    if fast is not None:
        assert isinstance(reference, argparse.Namespace), (argv, reference)
        assert fast == reference
    elif not isinstance(reference, argparse.Namespace):
        assert run_outcome(argv) == reference


@pytest.mark.parametrize("argv", [
    [],
    ["suite", "--sam", "3"],  # an abbreviation
    ["suite", "--seed=3"],
    ["suite", "-h"],
    ["suite", "--", "--seed", "3"],
    ["suite", "--seed"],  # a flag without its value
    ["catalog", "--kind", "-x"],
    ["catalog", "--kind", "-x y"],  # argparse reads it as a value, the table does not
    ["suite", "--seed", "x"],  # a type failure
    ["greens", "--side", "Q"],  # a choices failure
    ["quotient", "eq"],  # a subcommand with a positional
    ["quotient", "--backend", "act"],
    ["no-such-command"],
])
def test_other_argv_go_to_argparse(argv):
    assert cli._fast_parse(argv) is None


def test_the_table_reads_values_as_argparse_does():
    argv = ["verify-counterexample", "--seed", "-5", "--terms", "+4",
            "--depth", "1_0", "--input", "-", "--format", "text", "--seed", "7"]
    fast = cli._fast_parse(argv)
    assert fast == cli.build_parser().parse_args(argv)
    assert (fast.seed, fast.terms, fast.depth, fast.input) == (7, 4, 10, "-")
    assert fast.handler is cli.cmd_verify_counterexample
    assert fast.command == "verify-counterexample"


def test_every_workload_request_takes_the_table_path():
    workloads = runpy.run_path(str(WORKLOADS))["WORKLOADS"]
    for name, requests in workloads.items():
        for seed in (0, 1):
            for request in requests(seed):
                argv = list(request.argv)
                fast = cli._fast_parse(argv)
                assert fast is not None, (name, seed, argv)
                assert fast == cli.build_parser().parse_args(argv)
