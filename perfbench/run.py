"""indalg benchmark: closed-loop report runs, one workload per process.

    python3 perfbench/run.py --workload wordalg --seed 0 --seconds 30 --trace 0

One client calls ``indalg.cli.run(argv)`` in-process for each request of the
workload and sends the next request only after the previous report returns.
The workload's fixed batch runs whole, again and again, until ``--seconds``
have passed.  Each report is timed between two runs of a fixed reference
work (``reference.py``) and its time is scaled to the machine speed at which
that work takes ``reference.NOMINAL_S``, so that the drifting speed of a
shared host does not show as a change in indalg.  Every report is checked:
exit status 0, ``"ok": true``, the same bytes on every pass and, for the
default seed, the digest stored in ``digests.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 0
SETUP_PROCESSES = 15

sys.path.insert(0, HERE)
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Runs in a fresh interpreter: import the CLI and build its parser, then time
# the reference work three times (only afterwards, so that the modules it
# imports are still paid for by the CLI import).
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import indalg.cli
indalg.cli.build_parser()
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import reference
print(repr(elapsed), *(repr(reference.time_reference()) for _ in range(3)))
"""


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "indalg", "cli.py")):
        raise SystemExit(f"error: no indalg sources under {SRC}")
    sys.path.insert(0, SRC)
    import indalg.cli

    if not os.path.abspath(indalg.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: indalg imported from {indalg.cli.__file__}, not {SRC}")
    return indalg.cli


def measure_setup() -> float:
    """Median scaled seconds to import indalg.cli and build its parser in a
    fresh process, each scaled by the median of that process's reference runs."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC, HERE],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        elapsed, *gauges = map(float, proc.stdout.split())
        times.append(elapsed * reference.NOMINAL_S / statistics.median(gauges))
    return statistics.median(times)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_report(cli, request):
    """(seconds, exit status or None if it raised, report text)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(request.stdin or "")
    status = error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            status = cli.run(list(request.argv))
    except Exception:  # a report that raises is counted as failed; the run goes on
        error = traceback.format_exc()
    finally:
        elapsed = perf_counter() - t0
        sys.stdin = saved_stdin
    if error is not None:
        print(f"report {request.label!r} raised:\n{error}", file=sys.stderr)
    return elapsed, status, out.getvalue()


def report_ok(status, text: str, ref: str | None) -> bool:
    """Exit status 0, ``"ok": true``, and the reference digest if one is given."""
    if status != 0:
        return False
    try:
        ok = json.loads(text)["ok"] is True
    except (ValueError, KeyError, TypeError):
        return False
    return ok and (ref is None or digest(text) == ref)


class Pass:
    """One closed-loop pass over the batch.

    ``times`` are the reports' wall times, ``scaled`` the same times scaled
    by the reference work timed just before and just after each report.
    ``seconds`` is their wall time in all, without the reference work.
    """

    def __init__(self, cli, requests, refs, tracer=None):
        self.times, self.scaled, self.digests, self.failed = [], [], [], 0
        gauge_before = reference.time_reference()
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.report_id = i
            elapsed, status, text = run_report(cli, request)
            gauge_after = reference.time_reference()
            self.times.append(elapsed)
            self.scaled.append(
                elapsed * 2 * reference.NOMINAL_S / (gauge_before + gauge_after))
            gauge_before = gauge_after
            self.digests.append(digest(text))
            if not report_ok(status, text, refs[i]):
                self.failed += 1
                print(f"report {i} {request.label!r} failed the check",
                      file=sys.stderr)
        self.seconds = sum(self.times)


def stored_digests(workload: str, seed: int, count: int):
    if seed != DEFAULT_SEED:
        return [None] * count
    with open(DIGESTS, encoding="utf-8") as fh:
        refs = json.load(fh)[workload]
    if len(refs) != count:
        raise SystemExit(f"error: {DIGESTS} holds {len(refs)} digests for "
                         f"{workload}, the workload has {count} reports")
    return refs


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(cli, requests, refs, seconds: float, setup_s: float):
    """Untraced whole passes until ``seconds`` have passed."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(Pass(cli, requests, refs))
        refs = passes[0].digests
    times = [t for p in passes for t in p.scaled]
    metrics = {
        "setup_s": (setup_s, "s"),
        "reports_per_s": (len(times) / sum(times), "1/s"),
        "report_p50_ms": (1000 * statistics.median(times), "ms"),
        "report_p90_ms": (1000 * percentile(times, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = [t for p in passes for t in p.times]
    print(f"{len(times)} report latencies in {len(passes)} passes of "
          f"{', '.join(f'{p.seconds:.2f}' for p in passes)} s wall time; "
          f"unscaled p50 {1000 * statistics.median(wall):.2f} ms, "
          f"p90 {1000 * percentile(wall, 90):.2f} ms", file=sys.stderr)
    return passes, metrics


def per_layer(cli, requests, refs, seconds: float, span_path: str):
    """A reference pass, then traced and untraced passes in turn."""
    start = perf_counter()
    passes = [Pass(cli, requests, refs)]
    refs = passes[0].digests
    tracer = spans.Tracer()
    traced, untraced = [], []
    while not untraced or perf_counter() - start < seconds:
        tracer.install()
        try:
            traced.append(Pass(cli, requests, refs, tracer))
        finally:
            tracer.restore()
        untraced.append(Pass(cli, requests, refs))
    passes += traced + untraced

    calls, self_s = tracer.self_times()
    n = len(traced)
    metrics = {}
    for name, c, s in zip(spans.SPAN_NAMES, calls, self_s):
        metrics[f"{name}.calls"] = (c / n, "count")
        metrics[f"{name}.self_s"] = (s / n, "s")
    metrics["counterexample.HMap.lookup.repeat_share"] = (
        tracer.repeats / tracer.lookups if tracer.lookups else 0.0, "frac")
    metrics["counterexample.HMap.lookup.max_index_bits"] = (tracer.max_index_bits, "bits")
    metrics["terms.meta.cache_entries"] = (spans.meta_cache_entries(), "count")
    metrics["orders.monoids.ore_check.pairs_checked"] = (tracer.pairs_checked / n, "count")
    metrics["trace.overhead_frac"] = (
        sum(sum(p.scaled) for p in traced) / sum(sum(p.scaled) for p in untraced) - 1,
        "frac")

    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    tracer.write_spans(span_path)
    print(f"{n} traced passes, {len(tracer.name)} spans written to {span_path}",
          file=sys.stderr)
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    requests = WORKLOADS[args.workload](args.seed)
    refs = stored_digests(args.workload, args.seed, len(requests))
    if args.trace:
        span_path = os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}.spans")
        passes, metrics = per_layer(cli, requests, refs, args.seconds, span_path)
    else:
        setup_s = measure_setup()
        passes, metrics = end_to_end(cli, requests, refs, args.seconds, setup_s)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(requests) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
