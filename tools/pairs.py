"""Run the benchmark's pair protocol on a parent and a change, and print
the table and the verdict.

    python tools/pairs.py --base HEAD~1 --workload wordalg --seed 0 \\
        --pairs 10 --seconds 30 --claim report_p90_ms

The parent (``--base REV``) is exported with ``git archive``; the change is
``--head REV`` exported the same way or, by default, the working tree as it
stands (its tracked and untracked, not ignored, files).  Both land in a
temporary directory and get ``compileall``, so neither run compiles its
sources.  Each pair runs each tree's own

    python -B perfbench/run.py --workload W --seed S --seconds T --trace 0

once, the parent first in even pairs and the change first in odd ones.  The
tool refuses to run when the two trees' ``perfbench/workloads.py`` differ,
since their reports would then not be the same work, and it writes nothing
in this checkout.

It prints one row per end-to-end metric of ``BENCHMARK.json``: each side's
median [Q1, Q3] (``statistics.quantiles``, exclusive method), the change of
the median, and the pairs the change won (ties count for neither).  A claim
on a metric is met when the change wins at least nine tenths of the pairs
and its median is better by more than the parent's interquartile range.
A metric whose change median is worse than the parent's by more than its
bound is named, as is every run that was not correct.  The exit status is 0
when every run was correct, no metric left its bound and any claim was met;
1 otherwise, or when a run exits with an error; and 2 on a usage error or
when a tree cannot be exported, compared or compiled.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_FILE = Path("perfbench", "workloads.py")


class Refused(Exception):
    """The pair protocol cannot run on these trees."""


def export(rev: str | None, dest: Path) -> None:
    """Write revision rev of this checkout under dest, or, when rev is None,
    the working tree's tracked and untracked files that git does not ignore."""
    dest.mkdir(parents=True)
    if rev is not None:
        data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                              capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=data,
                       capture_output=True, check=True)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def prepare(tree: Path) -> None:
    """Compile the tree's sources, so that no run pays for compiling them."""
    for part in ("src", "perfbench"):
        if not compileall.compile_dir(str(tree / part), quiet=1):
            raise Refused(f"{tree / part} does not compile")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object that the tree's own benchmark prints last."""
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def collect(trees: dict[str, Path], pairs: int, run) -> dict[str, list[dict]]:
    """``pairs`` results of ``run(tree)`` for each side, the parent running
    first in even pairs and the change first in odd ones."""
    results: dict[str, list[dict]] = {"base": [], "head": []}
    for k in range(pairs):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            result = run(trees[side])
            results[side].append(result)
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items())
            print(f"pair {k + 1}/{pairs} {side}: {values}", file=sys.stderr)
    return results


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3) of values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def wins(base: list[float], head: list[float], higher: bool) -> int:
    """Pairs in which the change's value is strictly better."""
    return sum(h > b if higher else h < b for b, h in zip(base, head))


def summarize(results: dict[str, list[dict]], metrics: list[dict], label: str,
              claim: str | None) -> tuple[list[str], list[str]]:
    """The table rows in CHANGES.md's format, and the verdict lines: the
    claim and every failure of the protocol."""
    rows = ["| workload, seed | metric | parent median [Q1, Q3] | "
            "change median [Q1, Q3] | change | change wins |",
            "| --- | --- | --- | --- | --- | --- |"]
    verdicts = []
    for side, runs in results.items():
        for i, run in enumerate(runs):
            if not run["correct"] or run["failed"]:
                verdicts.append(f"FAIL: {side} run {i + 1} was not correct "
                                f"({run['failed']} of {run['attempted']} failed)")
    pairs = len(results["base"])
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        scale, shown = (1000, f"`{name}` (ms)") if name == "setup_s" else (1, f"`{name}`")
        base = [run["metrics"][name]["value"] * scale for run in results["base"]]
        head = [run["metrics"][name]["value"] * scale for run in results["head"]]
        (bm, bq1, bq3), (hm, hq1, hq3) = spread(base), spread(head)
        won = wins(base, head, higher)
        rows.append(f"| {label} | {shown} | {bm:.4g} [{bq1:.4g}, {bq3:.4g}] | "
                    f"{hm:.4g} [{hq1:.4g}, {hq3:.4g}] | {hm / bm - 1:+.1%} | "
                    f"{won}/{pairs} |")
        gain = hm - bm if higher else bm - hm  # > 0: the change is better
        if gain < -metric["bound"] * bm:
            verdicts.append(f"FAIL: {name} is worse than the parent by more "
                            f"than its bound of {metric['bound']:.0%}")
        if name == claim:
            met = won >= 0.9 * pairs and gain > bq3 - bq1
            verdicts.append(
                f"{'claim met' if met else 'FAIL: claim not met'}: {name} won "
                f"{won}/{pairs} pairs, median gap {gain:.4g} against the "
                f"parent's IQR {bq3 - bq1:.4g}")
    return rows, verdicts


def _stderr(exc: Exception) -> list[str]:
    """The standard error a failed subprocess left, if any."""
    err = getattr(exc, "stderr", None)
    if isinstance(err, bytes):
        err = err.decode(errors="replace")
    return [err.rstrip()] if err else []


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", help="the change's revision (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"--workload: not a workload of BENCHMARK.json: {args.workload!r}")
    if args.claim not in (None, *(m["name"] for m in metrics)):
        parser.error(f"--claim: not an end-to-end metric: {args.claim!r}")

    with tempfile.TemporaryDirectory(prefix="indalg-pairs-") as tmp:
        trees = {"base": Path(tmp, "base"), "head": Path(tmp, "head")}
        try:
            export(args.base, trees["base"])
            export(args.head, trees["head"])
            if ((trees["base"] / WORKLOADS_FILE).read_bytes()
                    != (trees["head"] / WORKLOADS_FILE).read_bytes()):
                raise Refused(f"the two trees' {WORKLOADS_FILE} differ")
            for tree in trees.values():
                prepare(tree)
        except (Refused, subprocess.CalledProcessError, OSError) as exc:
            print(f"error: {exc}", *_stderr(exc), file=sys.stderr)
            return 2
        try:
            results = collect(trees, args.pairs, lambda tree: run_bench(
                tree, args.workload, args.seed, args.seconds))
        except subprocess.CalledProcessError as exc:
            print(f"error: a benchmark run failed: {exc}", *_stderr(exc),
                  file=sys.stderr)
            return 1
    rows, verdicts = summarize(results, metrics, f"`{args.workload}`, {args.seed}",
                               args.claim)
    print("\n".join(rows + [""] + verdicts))
    return 1 if any(v.startswith("FAIL") for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
