"""Record the report digests the benchmark checks on its default seed.

    python3 perfbench/record_digests.py

Runs one pass of every workload at the default seed and writes
``digests.json``.  It refuses to record a report that exits non-zero, has
``"ok": false`` or raises, so only reports that pass their checks are stored.
Run it only when a change is meant to alter report bytes.
"""

import json
import sys

import run


def main() -> int:
    cli = run.load_cli()
    digests = {}
    for name, build in sorted(run.WORKLOADS.items()):
        requests = build(run.DEFAULT_SEED)
        result = run.Pass(cli, requests, [None] * len(requests))
        if result.failed:
            print(f"error: {result.failed} {name} reports failed; nothing written",
                  file=sys.stderr)
            return 1
        digests[name] = result.digests
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
