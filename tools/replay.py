"""Replay the benchmark's report requests and print one digest per workload.

Each request of the chosen workloads and seeds (``perfbench/workloads.py``,
which this tool only reads) runs through ``indalg.cli.run`` in this
process, with the request's payload as stdin.  For each workload it prints
the number of requests and one sha256 over every request's label, exit
status, stdout and stderr, in order.  Two trees whose reports are
byte-identical print the same lines:

    python tools/replay.py                      # every workload, seeds 0-2
    python tools/replay.py --workload catalog --seed 0

The package is imported from the ``src`` directory beside this file.  A
request that raises is recorded with status ``raised`` and the exception's
type and message as its stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from indalg import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2)


def replay(request) -> tuple[str, str, str]:
    """(exit status, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(request.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = str(cli.run(list(request.argv)))
    except Exception as exc:  # recorded, and the replay goes on
        status = "raised"
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved_stdin
    return status, out.getvalue(), err.getvalue()


def digest(requests) -> str:
    """One sha256 over each request's label and what replaying it gives,
    every field prefixed by its length."""
    h = hashlib.sha256()
    for request in requests:
        for field in (request.label, *replay(request)):
            data = field.encode()
            h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="a workload to replay (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help=f"a seed to replay (repeatable; default: {SEEDS})")
    args = parser.parse_args(argv)
    for name in args.workload or WORKLOADS:
        requests = [r for seed in args.seed or SEEDS for r in WORKLOADS[name](seed)]
        print(f"{name}  {len(requests)} requests  sha256 {digest(requests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
