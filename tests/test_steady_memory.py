"""Steady memory: long-lived objects do not grow from report to report.

One small batch covers every subcommand, both orders backends and one
usage error.  It runs three times in one process.  The intern table of
terms is back to its size before the batch after every pass, and once
the first pass has filled the caches, a further pass leaves no more
gc-tracked objects behind than the one before it.  The warm passes run
with the cyclic collector off, and a collection after each argv finds
nothing: a report frees what it made by reference counts alone, so no
cycle waits in the oldest generation for a rare full collection.
"""

import gc
import os

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
USAGE_ERROR = ["suite", "--n", "0"]


def _pass(warm: bool) -> None:
    gc.collect()
    if warm:
        gc.disable()
    try:
        for argv in BATCH:
            assert cli.run([*argv, "--out", os.devnull]) == 0, argv
            if warm:
                assert gc.collect() == 0, argv
        assert cli.run(USAGE_ERROR) == 2
    finally:
        gc.enable()


def test_three_passes_leave_no_growth(capsys):
    nodes = len(terms._NODES)
    tracked = []
    for warm in (False, True, True):
        _pass(warm)
        assert len(terms._NODES) == nodes
        gc.collect()
        tracked.append(len(gc.get_objects()))
    capsys.readouterr()  # the usage error's message
    assert tracked[2] <= tracked[1], tracked
