"""Steady memory: long-lived objects do not grow from report to report.

One small batch covers every subcommand and both orders backends, and a
few argv end otherwise: a report with error rows, help, and usage errors.
It runs three times in one process.  The intern table of
terms is back to its size before the batch after every pass, and once
the first pass has filled the caches, a further pass leaves no more
gc-tracked objects behind than the one before it.  The warm passes run
with the cyclic collector off, and a collection after each argv finds
nothing, however the argv ends: a report frees what it made by reference
counts alone, so no cycle waits in the oldest generation for a rare full
collection, and ``cli.run`` may pause the collector for each report.
"""

import gc
import io
import os
import sys

from indalg import cli, terms

BATCH = [
    ["verify-counterexample", "--samples", "20", "--terms", "5", "--depth", "3"],
    ["classify"],
    ["catalog", "--check", "exchange"],
    ["catalog", "--kind", "linear", "--params", '{"q": 3, "dim": 1}', "--check",
     "witness"],
    ["catalog", "--kind", "rank0", "--params", '{"size": 3}', "--check", "endos"],
    ["catalog", "--kind", "rank0", "--check", "clone"],
    *(["decompose", "--backend", "matrix", "--mode", mode]
      for mode in ("left", "right", "straight")),
    ["decompose", "--backend", "act"],
    *(["greens", "--backend", backend, "--side", side]
      for backend in ("matrix", "act") for side in ("R", "Lstar")),
    *(["quotient", action, "--backend", backend]
      for backend in ("matrix", "act") for action in ("eq", "embed")),
    ["ore-check", "--monoid", "free2", "--depth", "3"],
    ["ore-check", "--depth", "3"],
    ["suite", "--backend", "matrix", "--samples", "3"],
    ["suite", "--backend", "act", "--samples", "3"],
]
# (argv, stdin, exit status) of runs that end other than in a passing report
OTHER_ENDINGS = [
    (["classify", "--input", "-"],
     '{"terms": ["g(x1", "nu(z1, x0)", "nu(z1^x, x1)", "g(x1, x2)"]}', 1),
    (["--help"], "", 0),
    (["catalog", "--help"], "", 0),
    (["catalog", "--kind", "rank0", "--params", '{"size": 3, "bogus": 1}'], "", 2),
    (["suite", "--n", "0"], "", 2),
]


def _pass(warm: bool) -> None:
    gc.collect()
    if warm:
        gc.disable()
    saved = sys.stdin
    try:
        for argv in BATCH:
            assert cli.run([*argv, "--out", os.devnull]) == 0, argv
            if warm:
                assert gc.collect() == 0, argv
        for argv, stdin, status in OTHER_ENDINGS:
            sys.stdin = io.StringIO(stdin)
            assert cli.run(argv) == status, argv
            if warm:
                assert gc.collect() == 0, argv
    finally:
        sys.stdin = saved
        gc.enable()


def test_three_passes_leave_no_growth(capsys):
    nodes = len(terms._NODES)
    tracked = []
    for warm in (False, True, True):
        _pass(warm)
        assert len(terms._NODES) == nodes
        gc.collect()
        tracked.append(len(gc.get_objects()))
    capsys.readouterr()  # the reports, help and usage errors
    assert tracked[2] <= tracked[1], tracked
