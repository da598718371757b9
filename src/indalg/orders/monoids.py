"""Common-multiple (Ore) checks for small presented monoids.

`ore_check` is a bounded search and therefore a semi-decision procedure:
it reports "fails" only when a structural certificate rules out common
multiples outright (for the free monoid: distinct terminal or initial
letters can never be reconciled), and "inconclusive" when the search
bound is exhausted without either a solution or a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable


@dataclass(frozen=True)
class PresentedMonoid:
    name: str
    elements: Callable[[int], list]
    op: Callable
    # certificate(side, a, b) -> reason string when ua = vb (left) or
    # au = bv (right) is structurally impossible
    certificate: Callable = field(default=lambda side, a, b: None)
    fmt: Callable = field(default=str)


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
    certificate=_free2_certificate,
)

MONOIDS = {"posint": POSINT, "free2": FREE2}


@dataclass(frozen=True)
class OreResult:
    status: str  # "holds" | "fails" | "inconclusive"
    witness: dict | None
    pairs_checked: int

    def as_dict(self):
        return {
            "status": self.status,
            "witness": self.witness,
            "pairs_checked": self.pairs_checked,
        }


def ore_check(monoid: PresentedMonoid, side: str, depth: int) -> OreResult:
    """Search for common multiples ua = vb (left) or au = bv (right) with
    u, v ranging over elements of length <= depth."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    elems = monoid.elements(depth)
    fail = None
    stuck = None
    pairs = 0
    for a in elems:
        for b in elems:
            pairs += 1
            reason = monoid.certificate(side, a, b)
            if reason is not None:
                if fail is None:
                    fail = {
                        "a": monoid.fmt(a),
                        "b": monoid.fmt(b),
                        "certificate": reason,
                    }
                continue
            found = None
            for u in elems:
                for v in elems:
                    if side == "left":
                        ok = monoid.op(u, a) == monoid.op(v, b)
                    else:
                        ok = monoid.op(a, u) == monoid.op(b, v)
                    if ok:
                        found = (u, v)
                        break
                if found:
                    break
            if found is None and stuck is None:
                stuck = {"a": monoid.fmt(a), "b": monoid.fmt(b), "depth": depth}
    if fail is not None:
        return OreResult("fails", fail, pairs)
    if stuck is not None:
        return OreResult("inconclusive", stuck, pairs)
    return OreResult("holds", None, pairs)
