"""Record the behaviour contract: how every pinned request ends, byte for byte.

The record, ``tests/contract.json``, has one line per entry: its label, the
exit status of ``indalg.cli.run`` on its argv (with its payload as stdin),
and the sha256 of what the run wrote on stdout and on stderr.  Its entries
are, in order, the golden cases below, the error and help endings, and
every request of ``perfbench/workloads.py`` (which this tool only reads) at
seeds 0-2, all replayed in this process.  ``tests/test_reports_golden.py``
replays them again and compares.  A change that moves reports re-records,
and the diff of the record is the list of entries it moved:

    python tools/record_contract.py
    git diff tests/contract.json

A request that raises is never recorded: the tool names it, exits 1 and
leaves the record as it was.  The package is imported from the ``src``
directory beside this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "contract.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from indalg import cli  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

SEEDS = (0, 1, 2)
FIELDS = ["label", "exit status", "sha256 of stdout", "sha256 of stderr"]


def case(argv: str, stdin: str | None = None, label: str | None = None) -> Request:
    """A pinned request: argv split on spaces, labelled by it unless named."""
    return Request(label or argv, tuple(argv.split()), stdin)


# Reports at fixed flags and payloads, each a JSON report unless its argv
# asks for text.
RANK_DEFICIENT_PAIR = (
    '{"a": [["2/3", "1/14", "7/10"], ["4/3", "1/7", "7/5"], [0, 0, 0]], '
    '"b": [["2/3", 0, "1/5"], [0, "1/7", 1], ["2/3", "1/7", "6/5"]]}'
)
GOLDEN = [
    case("verify-counterexample"),
    case("classify"),
    # deep sampled terms: h-indices up to ~22,600 bits, so long divisions and
    # the chunked path of the h-map's encoding run
    case("verify-counterexample --samples 50 --terms 40 --depth 9 --seed 7"),
    case("catalog"),
    case("catalog --check witness"),
    case("catalog --check clone"),
    case("catalog --check endos"),
    case("decompose"),
    case("greens"),
    case("quotient eq"),
    case("quotient embed"),
    case("ore-check"),
    case("suite"),
    case("greens --backend matrix --side R"),
    case("greens --backend matrix --side L"),
    case("greens --backend matrix --side Rstar"),
    case("greens --backend matrix --side Lstar"),
    case("greens --backend act --side R"),
    case("greens --backend act --side L"),
    case("greens --backend act --side Rstar"),
    case("greens --backend act --side Lstar"),
    case("decompose --backend matrix --mode left"),
    case("decompose --backend matrix --mode right"),
    case("decompose --backend matrix --mode straight"),
    case("decompose --backend act --mode left"),
    case("quotient eq --backend matrix"),
    case("quotient eq --backend act"),
    case("quotient embed --backend matrix"),
    case("quotient embed --backend act"),
    case("ore-check --monoid posint --depth 3"),
    case("ore-check --monoid free2 --depth 3"),
    case("ore-check --monoid free2 --depth 5"),
    case("ore-check --monoid posint --depth 8"),
    case("suite --backend matrix --samples 20"),
    case("suite --backend act --samples 20"),
    case("suite --backend act --samples 20 --format text"),
    case("catalog --format text"),
    case("suite --backend matrix --n 4 --samples 20"),
    case("suite --backend act --n 3 --samples 20"),
    # long seeded streams: 200 samples reach far into each suite's draws,
    # so a sampler that reads its random stream differently moves the report
    case("suite --backend matrix --n 4 --samples 200 --seed 11"),
    case("suite --backend act --n 3 --samples 200 --seed 11"),
    # catalog instances beyond the default list: a witness check with
    # violations, the 5-element field, a 9-element affine clone and the
    # 25-element affine and linear spaces, whose 15,625-entry ternary tables
    # take the 16-bit lanes of the composition kernel (the linear witness
    # has 775 basic ops and is decided on its 10 gen ops)
    case('catalog --kind linear --params {"q":3,"dim":2,"a0":[[1,0]]} '
         "--check witness --variant plus"),
    case('catalog --kind linear --params {"q":5,"dim":1,"a0":[[1]]} --check witness'),
    case('catalog --kind affine --params {"q":3,"dim":2,"a0":[[1,0]]} --check clone'),
    case('catalog --kind affine --params {"q":5,"dim":2,"a0":[[1,0]]} --check witness'),
    case('catalog --kind affine --params {"q":5,"dim":2,"a0":[[1,0]]} --check endos'),
    case('catalog --kind linear --params {"q":5,"dim":2,"a0":[[1,0]]} --check witness'),
    case("greens --backend matrix --side R --input -",
         '{"a": [["1/2", "0"], ["0", "0"]], "b": [[1, 0], [0, 1]]}'),
    case("greens --backend matrix --side Lstar --input -",
         '{"a": [[2, 4], [1, 2]], "b": [[1, 0], [0, 3]]}'),
    case("decompose --mode straight --input -",
         '{"alpha": [["1/3", 2, 0], [0, 0, 0], [1, "-1/2", 5]]}'),
    case("quotient eq --input -",
         '{"p": {"t": 3, "v": [2, 4]}, "q": {"t": 6, "v": [4, 8]}}'),
    case("quotient embed --backend matrix --input -", '{"v": [-4, 0, 9]}'),
    # Starred Green's comparisons on rank-deficient 3x3 integer pairs whose
    # column lattices are not saturated: one comparable and one incomparable
    # pair per side.  The comparable Lstar pair holds only up to saturation
    # (a's column lattice is not inside b's), which the one integer kernel of
    # Lstar must see.
    case("greens --backend matrix --side Rstar --input -",
         '{"a": [[2, 4, 0], [4, 8, 0], [0, 0, 0]], "b": [[2, 4, 0], [1, 2, 0], [0, 0, 3]]}',
         "Rstar comparable"),
    case("greens --backend matrix --side Rstar --input -",
         '{"a": [[1, 1, 0], [2, 2, 0], [0, 0, 0]], "b": [[2, 4, 0], [1, 2, 0], [0, 0, 3]]}',
         "Rstar incomparable"),
    case("greens --backend matrix --side Lstar --input -",
         '{"a": [[2, 4, 0], [0, 0, 0], [2, 4, 0]], "b": [[3, 0, 0], [0, 0, 0], [0, 3, 0]]}',
         "Lstar comparable"),
    case("greens --backend matrix --side Lstar --input -",
         '{"a": [[2, 0, 0], [2, 0, 0], [0, 0, 0]], "b": [[3, 0, 0], [0, 0, 0], [0, 3, 0]]}',
         "Lstar incomparable"),
    # Rational rank-deficient payloads, so the rational row reduction under
    # the unstarred Green's orders and the straight decomposition meets
    # denominators, zero rows and dependent rows.  a = g @ b for a rank-one g,
    # so a <=_R b holds and a <=_L b does not.
    case("greens --side R --input -", RANK_DEFICIENT_PAIR, "greens R rank-deficient"),
    case("greens --side L --input -", RANK_DEFICIENT_PAIR, "greens L rank-deficient"),
    case("decompose --mode straight --input -",
         '{"alpha": [["1/2", "1/3", 0, "-2/5"], [1, "2/3", 0, "-4/5"], '
         '[0, "1/7", "3/4", 0], ["1/2", "10/21", "3/4", "-2/5"]]}',
         "decompose straight rank-deficient"),
    # Straight decompositions at the ends of the rank range: the zero matrix,
    # whose projector is zero, and a rank-one integer alpha whose projector
    # has a denominator, so the pair is scaled by it.
    case("decompose --mode straight --input -", '{"alpha": [[0, 0], [0, 0]]}',
         "decompose straight zero"),
    case("decompose --mode straight --input -",
         '{"alpha": [[2, 4, -2], [1, 2, -1], [0, 0, 0]]}',
         "decompose straight integer rank one"),
    # Act payloads beyond the demos: a decomposition that must translate
    # negative shifts, an incomparable pair for R and one for L, quotients equal
    # and unequal, and an embedding.
    case("decompose --backend act --input -",
         '{"alpha": {"flavor": "A", "shifts": [-5, 3, -1], "targets": [2, 2, 1]}}',
         "decompose negative shifts"),
    case("greens --backend act --side R --input -",
         '{"a": {"shifts": [0, 0], "targets": [1, 2]}, '
         '"b": {"shifts": [1, 0], "targets": [2, 2]}}',
         "greens R incomparable"),
    case("greens --backend act --side L --input -",
         '{"a": {"shifts": [2, 0, 1], "targets": [1, 3, 3]}, '
         '"b": {"shifts": [0, 4, 0], "targets": [2, 1, 1]}}',
         "greens L incomparable"),
    case("quotient eq --backend act --input -",
         '{"p": {"k": 4, "m": 9, "i": 2}, "q": {"k": 1, "m": 6, "i": 2}}',
         "quotient eq equal"),
    case("quotient eq --backend act --input -",
         '{"p": {"k": 4, "m": 9, "i": 2}, "q": {"k": 1, "m": 6, "i": 1}}',
         "quotient eq unequal"),
    case("quotient embed --backend act --input -", '{"m": 7, "i": 3}',
         "quotient embed m=7 i=3"),
]

# Endings that print no report: usage errors, each exit 2 with one
# "error: ..." line on stderr, and help, exit 0 with its text on stdout.
ENDINGS = [
    case("catalog --check bogus"),  # a value outside the flag's choices
    case("suite --n 9"),  # a size the act suite refuses
    case("decompose --backend act --mode straight"),  # a mode the backend lacks
    case("-h"),
    case("suite -h"),
]


def workload_cases(name: str, seed: int) -> list[Request]:
    """The requests of one workload at one seed, each label prefixed by the
    workload, the seed and the request's index, since labels repeat."""
    return [request._replace(label=f"{name} {seed} #{i} {request.label}")
            for i, request in enumerate(WORKLOADS[name](seed))]


def cases() -> list[Request]:
    """Every entry's request, in the record's order."""
    return GOLDEN + ENDINGS + [request for name in WORKLOADS for seed in SEEDS
                               for request in workload_cases(name, seed)]


def replay(request: Request) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of ``cli.run`` on one request, with its
    payload as stdin.  An exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(request.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.run(list(request.argv))
    finally:
        sys.stdin = saved_stdin
    return status, out.getvalue(), err.getvalue()


def entry(request: Request, status: int, out: str, err: str) -> list:
    """The record's entry for one replayed request."""
    return [request.label, status, *(hashlib.sha256(text.encode()).hexdigest()
                                     for text in (out, err))]


def render(entries: list[list]) -> str:
    """The record's text: one line per entry, so that a diff of two records
    lists the entries that moved."""
    lines = ",\n".join(json.dumps(e) for e in entries)
    return f'{{"fields": {json.dumps(FIELDS)}, "entries": [\n{lines}\n]}}\n'


def main() -> int:
    entries = []
    for request in cases():
        try:
            entries.append(entry(request, *replay(request)))
        except Exception:  # named and not recorded; the record stays as it was
            traceback.print_exc()
            print(f"error: request {request.label!r} raised; nothing recorded",
                  file=sys.stderr)
            return 1
    RECORD.write_text(render(entries), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
