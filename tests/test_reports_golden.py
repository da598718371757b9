"""The behaviour contract: every pinned request ends as the record says.

``tests/contract.json`` holds, for each golden case, each error and help
ending and each ``perfbench/workloads.py`` request at seeds 0-2, the exit
status and the sha256 of stdout and of stderr.  ``tools/record_contract.py``
writes it; these tests replay each golden case, and each workload at each
seed, through that tool's own ``replay`` in this process, and compare.  A
refactor that changes no behaviour leaves every entry as it is.  One test
checks the committed file itself, and one that the seed-0 entries agree
with the benchmark's stored digests, both without replaying anything.
"""

import json
import re
import sys
from pathlib import Path

import pytest
from report_json import canonical_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import record_contract  # noqa: E402
from record_contract import ENDINGS, GOLDEN, SEEDS, WORKLOADS, entry, replay  # noqa: E402

ENTRIES = json.loads(record_contract.RECORD.read_text(encoding="utf-8"))["entries"]
RECORDED = {e[0]: e for e in ENTRIES}
SHOWN = 20  # differing entries named in one failure


def assert_recorded(got: list[list]) -> None:
    """Every entry of got is the recorded one; else name each that differs."""
    moved = [g for g in got if RECORDED.get(g[0]) != g]
    assert not moved, "\n".join(
        [f"{len(moved)} of {len(got)} entries differ from {record_contract.RECORD.name}"
         " (label: recorded [status, stdout, stderr] -> now):"]
        + [f"  {g[0]}: {RECORDED.get(g[0], [None])[1:]} -> {g[1:]}" for g in moved[:SHOWN]]
        + [f"  ... and {len(moved) - SHOWN} more"] * (len(moved) > SHOWN)
        + ["If the change is meant, re-record with: python tools/record_contract.py"])


@pytest.mark.parametrize("case", GOLDEN + ENDINGS, ids=lambda case: case.label)
def test_report_digest(case):
    status, out, err = replay(case)
    if case in GOLDEN and "text" not in case.argv:  # a stray byte shows as a diff
        canonical_report(out)
    assert_recorded([entry(case, status, out, err)])


@pytest.mark.parametrize("name,seed", [(n, s) for n in WORKLOADS for s in SEEDS])
def test_workload_reports_match_the_record(name, seed):
    cases = record_contract.workload_cases(name, seed)
    assert_recorded([entry(case, *replay(case)) for case in cases])


def test_the_record_is_what_the_recorder_writes_for_its_cases():
    text = record_contract.RECORD.read_text(encoding="utf-8")
    assert record_contract.render(ENTRIES) == text
    labels = [case.label for case in record_contract.cases()]
    assert [e[0] for e in ENTRIES] == labels
    assert len(RECORDED) == len(labels)  # no label twice
    for label, status, *digests in ENTRIES:
        assert type(status) is int, label
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests), label


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_reports_match_the_stored_digests(name):
    # perfbench/digests.json pins a prefix of each seed-0 report's sha256
    stored = json.loads((record_contract.ROOT / "perfbench" / "digests.json")
                        .read_text())[name]
    recorded = [RECORDED[case.label] for case in record_contract.workload_cases(name, 0)]
    assert len(recorded) == len(stored)
    for (label, status, out, _), want in zip(recorded, stored):
        assert status == 0 and out.startswith(want), (label, want)


def test_a_request_that_raises_is_never_recorded(monkeypatch, tmp_path, capsys):
    def run(argv):
        if argv == ["suite"]:
            raise ZeroDivisionError("a fault")
        return 0

    record = tmp_path / "contract.json"
    monkeypatch.setattr(record_contract, "RECORD", record)
    monkeypatch.setattr(record_contract.cli, "run", run)
    monkeypatch.setattr(record_contract, "cases",
                        lambda: [record_contract.case("catalog"), record_contract.case("suite")])
    assert record_contract.main() == 1
    assert "error: request 'suite' raised; nothing recorded" in capsys.readouterr().err
    assert not record.exists()
