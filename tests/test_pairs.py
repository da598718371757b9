"""Self-test of ``tools/pairs.py`` with its exporter, compiler and runner
stubbed: the numbers are fixed, so no timing enters the test."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# report_p90_ms per pair: the change wins the first nine pairs and loses the
# last.  Parent sorted 10..19: median 14.5, Q1 11.75, Q3 17.25 (IQR 5.5);
# change sorted 4..12, 20: median 8.5, Q1 5.75, Q3 11.25; gap 6 > 5.5.
P90 = {"base": [10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
       "head": [4, 5, 6, 7, 8, 9, 10, 11, 12, 20]}
FLAT = {"reports_per_s": 120.0, "report_p50_ms": 7.0, "peak_rss_mb": 22.5,
        "setup_s": 0.0012}


def result(p90, rss=FLAT["peak_rss_mb"], failed=0):
    values = dict(FLAT, report_p90_ms=p90, peak_rss_mb=rss)
    return {"correct": failed == 0, "attempted": 360, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


def stub(monkeypatch, workloads):
    """Stub the exporter (writing ``workloads[rev]`` as the tree's
    workloads.py), the compiler and the runner; return the runner's log."""
    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "perfbench").mkdir()
        (dest / "perfbench" / "workloads.py").write_text(workloads[rev])

    log = []

    def run_bench(tree, workload, seed, seconds):
        assert (workload, seed, seconds) == ("wordalg", 1, 30.0)
        assert pairs.ROOT not in tree.parents  # nothing is written in the checkout
        side = tree.name
        log.append(side)
        return result(P90[side][log.count(side) - 1])

    monkeypatch.setattr(pairs, "export", export)
    monkeypatch.setattr(pairs, "prepare", lambda tree: None)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    return log


ARGV = ["--base", "HEAD~1", "--workload", "wordalg", "--seed", "1",
        "--claim", "report_p90_ms"]


def test_pairs_alternate_and_print_the_table_and_the_verdict(monkeypatch, capsys):
    log = stub(monkeypatch, {"HEAD~1": "same", None: "same"})
    assert pairs.main(ARGV) == 0
    assert log == ["base", "head", "head", "base"] * 5
    out = capsys.readouterr().out
    assert out == """\
| workload, seed | metric | parent median [Q1, Q3] | change median [Q1, Q3] | change | change wins |
| --- | --- | --- | --- | --- | --- |
| `wordalg`, 1 | `reports_per_s` | 120 [120, 120] | 120 [120, 120] | +0.0% | 0/10 |
| `wordalg`, 1 | `report_p50_ms` | 7 [7, 7] | 7 [7, 7] | +0.0% | 0/10 |
| `wordalg`, 1 | `report_p90_ms` | 14.5 [11.75, 17.25] | 8.5 [5.75, 11.25] | -41.4% | 9/10 |
| `wordalg`, 1 | `peak_rss_mb` | 22.5 [22.5, 22.5] | 22.5 [22.5, 22.5] | +0.0% | 0/10 |
| `wordalg`, 1 | `setup_s` (ms) | 1.2 [1.2, 1.2] | 1.2 [1.2, 1.2] | +0.0% | 0/10 |

claim met: report_p90_ms won 9/10 pairs, median gap 6 against the parent's IQR 5.5
"""


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    metrics = [{"name": "report_p90_ms", "better": "lower", "bound": 0.25}]

    def verdicts(base, head):
        results = {"base": [result(v) for v in base], "head": [result(v) for v in head]}
        return pairs.summarize(results, metrics, "w", "report_p90_ms")[1]

    assert verdicts(P90["base"], P90["head"])[0].startswith("claim met")
    eight = P90["head"][:8] + [20, 20]  # two pairs lost
    assert verdicts(P90["base"], eight)[0].startswith("FAIL: claim not met: report_p90_ms won 8/10")
    narrow = [v - 5 for v in P90["base"]]  # wins all ten, but the gap 5 < IQR 5.5
    assert verdicts(P90["base"], narrow) == [
        "FAIL: claim not met: report_p90_ms won 10/10 pairs, median gap 5 "
        "against the parent's IQR 5.5"]


def test_a_metric_out_of_bound_and_a_failed_run_are_named():
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    results = {"base": [result(13, rss=20.0)] * 2,
               "head": [result(13, rss=22.1), result(13, rss=22.1, failed=3)]}
    assert pairs.summarize(results, metrics, "w", None)[1] == [
        "FAIL: head run 2 was not correct (3 of 360 failed)",
        "FAIL: peak_rss_mb is worse than the parent by more than its bound of 10%"]
    results["head"] = [result(13, rss=21.9)] * 2  # worse, but inside the bound
    assert pairs.summarize(results, metrics, "w", None)[1] == []


def test_trees_with_different_workloads_are_refused(monkeypatch, capsys):
    log = stub(monkeypatch, {"HEAD~1": "old", None: "new"})
    assert pairs.main(ARGV) == 2
    assert log == []
    assert capsys.readouterr().err == (
        "error: the two trees' perfbench/workloads.py differ\n")
