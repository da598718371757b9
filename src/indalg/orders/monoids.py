"""Common-multiple (Ore) checks for small presented monoids.

`ore_check` is a bounded search and therefore a semi-decision procedure:
it reports "fails" only when a structural certificate rules out common
multiples outright (for the free monoid: distinct terminal or initial
letters can never be reconciled), and "inconclusive" when the search
bound is exhausted without either a solution or a certificate.

The search keeps, for each element a, the set of its multiples ua (left)
or au (right) by the elements up to the depth; a pair (a, b) has a common
multiple within the bound iff the two sets meet.  The element count is
computed from the depth before anything is built and capped at
``MAX_ELEMENTS``.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple


class PresentedMonoid(NamedTuple):
    name: str
    elements: Callable[[int], list]
    op: Callable
    # size(depth) == len(elements(depth)), computed without building them
    size: Callable[[int], int]
    # certificate(side, a, b) -> reason string when ua = vb (left) or
    # au = bv (right) is structurally impossible
    certificate: Callable = lambda side, a, b: None
    # the outcome a correct Ore check reports on each side
    expected: str = "pass"


def _posint_elements(depth: int) -> list[int]:
    out = {1}
    for a in range(depth + 1):
        for b in range(depth + 1 - a):
            out.add(2**a * 3**b)
    return sorted(out)


POSINT = PresentedMonoid(
    name="posint",
    elements=_posint_elements,
    op=lambda x, y: x * y,
    size=lambda depth: (depth + 1) * (depth + 2) // 2,
)


def _free2_elements(depth: int) -> list[str]:
    out = [""]
    for k in range(1, depth + 1):
        out.extend("".join(w) for w in product("ab", repeat=k))
    return out


def _free2_certificate(side: str, a: str, b: str):
    if not a or not b:
        return None
    if side == "left" and a[-1] != b[-1]:
        return (
            f"no common left multiple: ua ends in {a[-1]!r} "
            f"while vb ends in {b[-1]!r}"
        )
    if side == "right" and a[0] != b[0]:
        return (
            f"no common right multiple: au starts with {a[0]!r} "
            f"while bv starts with {b[0]!r}"
        )
    return None


FREE2 = PresentedMonoid(
    name="free2",
    elements=_free2_elements,
    op=lambda x, y: x + y,
    size=lambda depth: 2 ** (depth + 1) - 1,
    certificate=_free2_certificate,
    expected="finding",
)

MONOIDS = {"posint": POSINT, "free2": FREE2}

# The search keeps one set of multiples per element, O(N^2) memory and
# O(N^3) time for N elements; this cap (free2 up to depth 7, posint up to
# depth 21) keeps every accepted depth to seconds.
MAX_ELEMENTS = 256


class OreResult(NamedTuple):
    status: str  # "holds" | "fails" | "inconclusive"
    witness: dict | None
    pairs_checked: int


def ore_check(monoid: PresentedMonoid, side: str, depth: int) -> OreResult:
    """Search for common multiples ua = vb (left) or au = bv (right) with
    u, v ranging over elements of length <= depth."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # A depth past the cap is refused outright: both monoids here have more
    # than `depth` elements up to `depth`, and free2's size at a huge depth
    # would itself take unbounded time and memory to compute.
    if depth > MAX_ELEMENTS or monoid.size(depth) > MAX_ELEMENTS:
        raise ValueError(f"depth {depth} gives {monoid.name} more than "
                         f"{MAX_ELEMENTS} elements")
    elems = monoid.elements(depth)
    op = monoid.op
    if side == "left":
        multiples = [{op(u, a) for u in elems} for a in elems]
    else:
        multiples = [{op(a, u) for u in elems} for a in elems]
    pairs = len(elems) ** 2  # the whole pair space: a certificate settles it
    stuck = None
    for a, ma in zip(elems, multiples):
        for b, mb in zip(elems, multiples):
            reason = monoid.certificate(side, a, b)
            if reason is not None:
                fail = {"a": str(a), "b": str(b), "certificate": reason}
                return OreResult("fails", fail, pairs)
            if stuck is None and ma.isdisjoint(mb):
                stuck = {"a": str(a), "b": str(b), "depth": depth}
    if stuck is not None:
        return OreResult("inconclusive", stuck, pairs)
    return OreResult("holds", None, pairs)
