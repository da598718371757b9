"""Seeded report requests for the three benchmark workloads.

A workload is a fixed list of report requests.  Its mix of report kinds and
instance sizes is the same for every seed; the seed chooses only parameters
inside that mix (sampler seeds, term shapes, permutation labellings, matrix
entries), so every seed costs about the same.  Every request is valid: on a
correct program each report exits 0 with ``"ok": true``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple


class Request(NamedTuple):
    label: str  # the request's slot in the fixed mix; the same for every seed
    argv: tuple[str, ...]
    stdin: str | None = None  # payload read through ``--input -``


# --- wordalg: words, terms and the h-map; never catalog or orders -------------

VERIFY_REPORTS = 100
CLASSIFY_REPORTS = 20
TERMS_PER_CLASSIFY = 200
CLASSIFY_DEPTH = 7
# classify reuses these prefixes across every term of a report
COEFF_POOL = ("z1", "z2", "z3", "z1*z2", "z3*z1", "z2^-1*z4", "z5^2")


def _term(rng: random.Random, depth: int) -> str:
    if depth <= 1 or rng.random() < 0.2:
        return f"x{rng.randint(1, 3)}"
    if rng.random() < 0.35:
        return f"nu({rng.choice(COEFF_POOL)}, {_term(rng, depth - 1)})"
    return f"g({_term(rng, depth - 1)}, {_term(rng, depth - 1)})"


def wordalg(seed: int) -> list[Request]:
    rng = random.Random(f"wordalg/{seed}")
    out = []
    for i in range(VERIFY_REPORTS):
        out.append(Request(
            "verify-counterexample",
            ("verify-counterexample", "--samples", "300", "--terms", "50",
             "--depth", "6", "--seed", str(rng.randrange(2**31))),
        ))
        if i % (VERIFY_REPORTS // CLASSIFY_REPORTS) == 0:
            terms = [_term(rng, CLASSIFY_DEPTH) for _ in range(TERMS_PER_CLASSIFY)]
            out.append(Request("classify", ("classify", "--input", "-"),
                               json.dumps({"terms": terms})))
    return out


# --- catalog: closure, exchange, clones, endomorphisms; never words or orders -

CHECKS = ("exchange", "witness", "clone", "endos")

# (kind, q, dim) for field-based slots; linear q=5 is left out because its
# clone and witness checks take tens of seconds each.  The p90 falls among the
# ~0.3-0.5 s clone and witness reports (three linear q=3 dim=1 slots and the
# default catalog), in the middle of that cluster rather than at its edge.
FIELD_SLOTS = (
    ("linear", 2, 1), ("linear", 2, 2),
    ("linear", 3, 1), ("linear", 3, 1), ("linear", 3, 1),
    ("linear", 3, 2),
    ("affine", 2, 1), ("affine", 2, 2), ("affine", 3, 1), ("affine", 3, 2),
    ("affine", 5, 1),
)
# cycle type of the single generating permutation; points fixed by any
# non-identity group element must be constants, so fixed points are constants.
# Sizes stop at 6: a report's time is scaled by the machine speed gauged just
# before and after it, which misses drift inside a long report, and the
# brute-force endomorphism search of a size-7 action takes about 2 s.
GROUP_SLOTS = ((3,), (1, 3), (2, 2), (1, 2, 2), (2, 2, 2), (3, 3))
RANK0_SIZES = (2, 4, 6)
Q_HOMOG_ORDERS = (2, 3, 5)


def _nonzero_vector(rng: random.Random, q: int, dim: int) -> list[int]:
    while True:
        v = [rng.randrange(q) for _ in range(dim)]
        if any(v):
            return v


def _group_params(rng: random.Random, cycle_type: tuple[int, ...]) -> dict:
    size = sum(cycle_type)
    points = list(range(size))
    rng.shuffle(points)
    perm = list(range(size))
    constants = []
    start = 0
    for length in cycle_type:
        cycle = points[start:start + length]
        start += length
        if length == 1:
            constants.append(cycle[0])
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    if not constants:
        constants.append(rng.randrange(size))
    return {"size": size, "generators": [perm], "constants": sorted(constants)}


def _catalog_instances(rng: random.Random) -> list[tuple[str, str, dict]]:
    """(slot label, kind, params) for every seeded instance."""
    out = []
    for kind, q, dim in FIELD_SLOTS:
        params = {"q": q, "dim": dim, "a0": [_nonzero_vector(rng, q, dim)]}
        out.append((f"{kind} q={q} dim={dim}", kind, params))
    for cycle_type in GROUP_SLOTS:
        params = _group_params(rng, cycle_type)
        out.append((f"group_action cycles={cycle_type}", "group_action", params))
    for size in RANK0_SIZES:
        out.append((f"rank0 size={size}", "rank0", {"size": size}))
    for q in Q_HOMOG_ORDERS:
        out.append((f"q_homog_field q={q}", "q_homog_field", {"q": q}))
    out.append(("exceptional", "exceptional", {}))
    return out


def catalog(seed: int) -> list[Request]:
    rng = random.Random(f"catalog/{seed}")
    out = [Request(f"default catalog {check}", ("catalog", "--check", check))
           for check in CHECKS]
    for label, kind, params in _catalog_instances(rng):
        for check in CHECKS:
            out.append(Request(
                f"{label} {check}",
                ("catalog", "--kind", kind, "--params",
                 json.dumps(params, sort_keys=True), "--check", check),
            ))
    return out


# --- orders: exact linear algebra, acts, Ore checks; never words or catalog ---

# (backend, n, samples, reports).  The n=4 matrix suites are the slowest
# reports after the two Ore checks; there are enough of them that the p90
# falls inside their cluster, not at its edge.
SUITE_SLOTS = (("matrix", 3, 15, 8), ("matrix", 4, 20, 20), ("act", 3, 20, 16))
MATRIX_SIZES = (2, 3, 4)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _matrix(rng: random.Random, n: int, field: str, low_rank: bool) -> list[list[Fraction]]:
    entry = _rational if field == "rational" else (lambda r: Fraction(r.randint(-9, 9)))
    if not low_rank:
        return [[entry(rng) for _ in range(n)] for _ in range(n)]
    k = rng.randint(1, n - 1)
    left = [[entry(rng) for _ in range(k)] for _ in range(n)]
    right = [[entry(rng) for _ in range(n)] for _ in range(k)]
    return _mul(left, right)


def _mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _encode(m) -> list[list]:
    """Integers as JSON numbers, other rationals as exact strings."""
    return [[int(x) if x.denominator == 1 else str(x) for x in row] for row in m]


def orders(seed: int) -> list[Request]:
    rng = random.Random(f"orders/{seed}")
    out = []
    for backend, n, samples, reports in SUITE_SLOTS:
        for _ in range(reports):
            out.append(Request(
                f"suite {backend} n={n}",
                ("suite", "--backend", backend, "--n", str(n),
                 "--samples", str(samples), "--seed", str(rng.randrange(2**31))),
            ))
    for mode in ("left", "right", "straight"):
        for n in MATRIX_SIZES:
            for field in ("rational", "integer"):
                for low_rank in (False, True):
                    alpha = _matrix(rng, n, field, low_rank)
                    out.append(Request(
                        f"decompose {mode} n={n} {field} low_rank={low_rank}",
                        ("decompose", "--backend", "matrix", "--mode", mode,
                         "--input", "-"),
                        json.dumps({"alpha": _encode(alpha)}),
                    ))
    for side in ("R", "L", "Rstar", "Lstar"):
        # the starred sides compare integer matrices only
        fields = ("rational", "integer") if side in ("R", "L") else ("integer", "integer")
        for n in MATRIX_SIZES:
            for field in fields:
                for comparable in (False, True):
                    b = _matrix(rng, n, field, low_rank=False)
                    a = _matrix(rng, n, field, low_rank=False)
                    if comparable:
                        # R orders by kernels (a = g b), L by images (a = b g)
                        a = _mul(a, b) if side in ("R", "Rstar") else _mul(b, a)
                    out.append(Request(
                        f"greens {side} n={n} {field} comparable={comparable}",
                        ("greens", "--backend", "matrix", "--side", side,
                         "--input", "-"),
                        json.dumps({"a": _encode(a), "b": _encode(b)}),
                    ))
    # depth 5 on free2 would take about 3 s in one report, too long for its
    # time to be scaled well (see GROUP_SLOTS); depth 4 takes about 0.15 s
    out.append(Request("ore-check posint", ("ore-check", "--monoid", "posint",
                                            "--depth", "8")))
    out.append(Request("ore-check free2", ("ore-check", "--monoid", "free2",
                                           "--depth", "4")))
    return out


WORKLOADS = {"wordalg": wordalg, "catalog": catalog, "orders": orders}
