"""Byte-identity of the benchmark's reports, as a tier-1 test.

Each workload's seed-0 requests (``perfbench/workloads.py``) are replayed in
this process, and the digest of each report, taken by the benchmark's own
rule, is compared with the one stored in ``perfbench/digests.json``, which
this test only reads.  The first request whose report differs is named by
its workload, index and label.
"""

import json
import sys
from pathlib import Path

import pytest

from indalg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_reports_match_the_stored_digests(name):
    stored = json.loads((PERFBENCH / "digests.json").read_text())[name]
    requests = WORKLOADS[name](run.DEFAULT_SEED)
    assert len(requests) == len(stored)
    for i, (request, want) in enumerate(zip(requests, stored)):
        _, status, text = run.run_report(cli, request)
        got = run.digest(text)
        assert (status, got) == (0, want), (
            f"{name} request {i} ({request.label!r}) exits {status} with digest "
            f"{got}; stored: {want}")
