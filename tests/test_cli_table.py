"""``cli.parse`` reads argv as argparse reads the grammar of its table.

The reference is an argparse parser built, here only, from the table
``cli.build_parser()`` returns: a subparser for each subcommand, with its
positional and each flag's dest, type, choices and default.  On every argv
drawn here the two agree on whether it is accepted, asks for help or is
refused, and on every value of an accepted argv; only the help and error
text differ.  The one exception is '--': parse refuses it and all that
follows it, where argparse drops it only next to a positional
(``quotient eq --`` is accepted, ``suite --`` refused).
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
TABLE = cli.build_parser()
HELP = ("-h", "--help")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="indalg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (options, defaults, positional) in TABLE.items():
        p = sub.add_parser(name)
        if positional is not None:
            dest, _, choices, _ = positional
            p.add_argument(dest, choices=choices)
        for option, (dest, convert, choices, _) in options.items():
            if option not in HELP:
                p.add_argument(option, dest=dest, type=convert, choices=choices)
        p.set_defaults(**defaults)
    return parser


REFERENCE = reference_parser()
COMMANDS = sorted(TABLE)
OPTIONS = sorted({o for options, _, _ in TABLE.values() for o in options})
POSITIONALS = sorted({c for _, _, p in TABLE.values() if p for c in p[2]})
# option-like and value-like tokens argparse reads in its own ways
ODD_FLAGS = ["--sam", "--se", "--seed=3", "--n=2", "-h", "--", "-x"]
INT_TEXTS = ["0", "3", "10", "-5", "-1.5", "1_0", "+4", "٣", " 4", "", "x"]
TEXTS = ["-", "", " -x", "-x", "-x y", "-5", "-5x", "all", "rank0", "plus",
         '{"size": 2}', '{"terms": []}', "[1", "/nonexistent/x.json"]
TOKENS = COMMANDS + OPTIONS + POSITIONALS + ODD_FLAGS + INT_TEXTS + TEXTS + ["json", "Q"]


def _values(entry):
    _, convert, choices, _ = entry
    if choices is not None:
        return sorted(choices) + ["Q"]  # and one that no choices hold
    return INT_TEXTS if convert is int else TEXTS


def _requests(cmd):
    """cmd with its positional and flag/value pairs: mostly its own flags
    with values of their kind, now and then any token in either place."""
    options, _, positional = TABLE[cmd]
    flags = sorted(o for o in options if o not in HELP)
    own = st.sampled_from(flags).flatmap(
        lambda o: st.tuples(st.just(o), st.sampled_from(_values(options[o]))))
    stray = st.tuples(st.sampled_from(OPTIONS + ODD_FLAGS), st.sampled_from(TOKENS))
    parts = [own, own, own, stray]
    if positional is not None:
        parts.append(st.sampled_from([*positional[2], "Q"]).map(lambda t: (t,)))
    return st.lists(st.one_of(parts), max_size=4).map(
        lambda pairs: [cmd] + [t for pair in pairs for t in pair])


_ARGV = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=7),
                  st.sampled_from(COMMANDS).flatmap(_requests),
                  st.sampled_from(COMMANDS).flatmap(_requests))


def parse_outcome(argv):
    """The namespace ``cli.parse`` returns, as a dict, or "help" or "refused"."""
    try:
        return vars(cli.parse(argv))
    except cli.Help:
        return "help"
    except cli.UsageError:
        return "refused"


def argparse_outcome(argv):
    """The reference's namespace, as a dict, or "help" or "refused"."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(REFERENCE.parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code == 0 else "refused"


@settings(max_examples=400)
@given(_ARGV)
@example(["catalog", "--kind", "rank0", "--params", '{"size": 2}', "--check", "endos"])
@example(["verify-counterexample", "--seed", "-5", "--terms", "1_0"])
@example(["classify", "--input", "-"])
@example(["greens", "--side", "Rstar", "--side", "L"])
@example(["suite", "--samples", "٣", "--n", "+4"])
@example(["catalog", "--kind", " -x"])
@example(["quotient", "--backend", "act", "embed"])
@example(["quotient", "eq", "--"])
@example(["-x", "suite", "-h"])  # an unknown option is refused after the rest
@example(["suite", "rank0", "--he"])
@example(["suite", "--n", "x", "-h"])  # a bad value is refused where it stands
@example(["--backend", "0", "--help"])  # so is a stray option's value
@example(["quotient", "--seed", "eq", "-h"])  # ... unless it is a choice
def test_the_table_path_is_argparses_parse(argv):
    expected = argparse_outcome(argv)
    if "--" in argv and isinstance(expected, dict):
        expected = "refused"
    assert parse_outcome(argv) == expected


@pytest.mark.parametrize("argv", [
    [],
    ["suite", "--sam", "3"],  # an abbreviation
    ["suite", "--seed=3"],
    ["suite", "-h"],
    ["suite", "--", "--seed", "3"],
    ["suite", "--seed"],  # a flag without its value
    ["catalog", "--kind", "-x"],
    ["catalog", "--kind", "-x y"],  # a value with a space may start with '-'
    ["suite", "--seed", "x"],  # a type failure
    ["greens", "--side", "Q"],  # a choices failure
    ["quotient", "eq"],  # a subcommand with a positional
    ["quotient", "--backend", "act"],
    ["no-such-command"],
])
def test_other_argv_go_to_argparse(argv):
    """argv that argparse reads in its own ways: each goes to argparse as
    well, and parse agrees with it."""
    assert parse_outcome(argv) == argparse_outcome(argv)


def test_the_table_reads_values_as_argparse_does():
    argv = ["verify-counterexample", "--seed", "-5", "--terms", "+4",
            "--depth", "1_0", "--out", "-", "--format", "text", "--seed", "7"]
    args = cli.parse(argv)
    assert vars(args) == argparse_outcome(argv)
    assert (args.seed, args.terms, args.depth, args.out) == (7, 4, 10, "-")
    assert (args.n, args.input) == (2, None)  # defaults of flags it does not read
    assert args.handler is cli.cmd_verify_counterexample
    assert args.command == "verify-counterexample"


def test_every_workload_request_takes_the_table_path():
    workloads = runpy.run_path(str(WORKLOADS))["WORKLOADS"]
    for name, requests in workloads.items():
        for seed in (0, 1):
            for request in requests(seed):
                argv = list(request.argv)
                assert vars(cli.parse(argv)) == argparse_outcome(argv), (name, seed, argv)
