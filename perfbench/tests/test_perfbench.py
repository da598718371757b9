"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

CLI = run.load_cli()

# A cheap slice of each workload: the first request of each label with these
# prefixes.  It still reaches every layer the workload drives.
CHEAP_LABELS = {
    "wordalg": ("verify-counterexample", "classify"),
    "catalog": ("default catalog exchange", "group_action cycles=(3,)",
                "rank0 size=2", "exceptional"),
    "orders": ("decompose", "greens", "suite act", "ore-check posint"),
}
# The layers each workload must reach, and the prefixes of all it may reach.
REACHES = {
    "wordalg": ("counterexample.HMap.lookup", ("words.", "terms.", "counterexample.")),
    "catalog": ("catalog.closure", ("catalog.",)),
    "orders": ("orders.linalg.rref", ("orders.",)),
}


def cheap_requests(name, seed=0):
    seen, out = set(), []
    for i, request in enumerate(WORKLOADS[name](seed)):
        if request.label.startswith(CHEAP_LABELS[name]) and request.label not in seen:
            seen.add(request.label)
            out.append((i, request))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_with_a_fixed_mix(name):
    build = WORKLOADS[name]
    first, again, other = build(3), build(3), build(4)
    assert first == again
    assert first != other
    assert [r.label for r in first] == [r.label for r in other]
    assert len(first) >= 100


def test_stored_digests_cover_every_workload():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh)
    assert sorted(stored) == sorted(WORKLOADS)
    for name, build in WORKLOADS.items():
        assert len(stored[name]) == len(build(run.DEFAULT_SEED))


def _indalg_bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items()) if name.startswith("indalg")
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_reports_match_untraced_and_stored(name):
    with open(run.DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh)[name]
    selected = cheap_requests(name)
    plain = [run.run_report(CLI, r) for _, r in selected]
    for (i, _), (_, status, text) in zip(selected, plain):
        assert run.report_ok(status, text, stored[i])

    before = _indalg_bindings()
    lookup = sys.modules["indalg.counterexample"].HMap.__dict__["lookup"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run.run_report(CLI, r) for _, r in selected]
    finally:
        tracer.restore()
    assert [t[1:] for t in traced] == [p[1:] for p in plain]
    assert _indalg_bindings() == before
    assert sys.modules["indalg.counterexample"].HMap.__dict__["lookup"] is lookup

    calls, self_s = tracer.self_times()
    reached = {n for n, c in zip(spans.SPAN_NAMES, calls) if c}
    required, allowed = REACHES[name]
    assert {"cli.run", required} <= reached
    for layer in reached - {"cli.run"}:
        assert layer.startswith(allowed), layer
    assert all(s >= 0 for s in self_s)


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = spans.Tracer()
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 2.0, 5.0, 0),
                                    (1, 6.0, 7.0, 0), (0, 2.5, 4.0, 1)):
        tracer.name.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.report.append(0)
    calls, self_s = tracer.self_times()
    assert calls[:2] == [2, 2]
    assert self_s[:2] == [6.0 + 1.5, 1.5 + 1.0]

    path = tmp_path / "t.spans"
    tracer.write_spans(path)
    names, arrays = spans.read_spans(path)
    assert names == list(spans.SPAN_NAMES)
    assert list(arrays["end"]) == [10.0, 5.0, 7.0, 4.0]
    assert list(arrays["parent"]) == [-1, 0, 0, 1]


def test_altered_report_is_counted_as_failed():
    request = WORKLOADS["orders"](0)[-2]  # ore-check posint
    _, status, text = run.run_report(CLI, request)
    ref = run.digest(text)
    assert run.report_ok(status, text, ref)
    altered = text.replace('"pairs_checked": ', '"pairs_checked": 1', 1)
    assert altered != text
    assert not run.report_ok(status, altered, ref)
    assert run.Pass(CLI, [request, request], [ref, "0" * 16]).failed == 1


def test_not_ok_report_is_counted_as_failed():
    bad = Request("bad term", ("classify", "--input", "-"),
                  json.dumps({"terms": ["g(x1"]}))
    assert run.Pass(CLI, [bad], [None]).failed == 1


class _RaisingCli:
    calls = 0

    def run(self, argv):
        self.calls += 1
        raise RuntimeError("boom")


def test_raising_report_is_counted_and_the_pass_goes_on():
    cli = _RaisingCli()
    requests = [Request("x", ("classify",)), Request("y", ("classify",))]
    result = run.Pass(cli, requests, [None, None])
    assert result.failed == 2
    assert cli.calls == 2
    assert len(result.times) == 2


def test_report_times_are_scaled_by_the_reference_around_them(monkeypatch):
    gauges = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(run.reference, "time_reference", lambda: next(gauges))
    requests = [Request("x", ("classify",)), Request("y", ("classify",))]
    result = run.Pass(_RaisingCli(), requests, [None, None])
    nominal = run.reference.NOMINAL_S
    assert result.scaled == pytest.approx([result.times[0] * nominal / 0.003,
                                           result.times[1] * nominal / 0.005])
    assert result.seconds == pytest.approx(sum(result.times))
