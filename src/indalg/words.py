"""Reduced-word arithmetic in the free group on generators z1, z2, z3, ...

A word is a tuple of syllables ``(gen, exp)`` with ``gen >= 1`` and
``exp != 0``; adjacent syllables carry distinct generators.  The empty tuple
is the identity.  Generator indices are unbounded Python ints.
"""

from __future__ import annotations

from typing import Iterable

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]

IDENTITY: Word = ()


def reduce(raw: Iterable[Syllable]) -> Word:
    """Free reduction: merge adjacent equal-generator syllables, drop zeros."""
    stack: list[list[int]] = []
    for gen, exp in raw:
        if not (isinstance(gen, int) and gen >= 1):
            raise ValueError(f"generator index must be a positive int, got {gen!r}")
        if not isinstance(exp, int):
            raise ValueError(f"exponent must be an int, got {exp!r}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def mul(u: Word, v: Word) -> Word:
    """Product of two reduced words (reduced)."""
    out = list(u)
    for gen, exp in v:
        if out and out[-1][0] == gen:
            e = out[-1][1] + exp
            if e == 0:
                out.pop()
            else:
                out[-1] = (gen, e)
        else:
            out.append((gen, exp))
    return tuple(out)


def inv(u: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(u))


def gen(i: int, e: int = 1) -> Word:
    """The word z_i**e."""
    return reduce([(i, e)])


def is_positive(u: Word) -> bool:
    """True iff u is a nonempty product of generators with positive exponents."""
    return bool(u) and all(e > 0 for _, e in u)


def gen_content(u: Word) -> frozenset[int]:
    return frozenset(g for g, _ in u)


def format_word(u: Word) -> str:
    if not u:
        return "1"
    parts = []
    for g, e in u:
        parts.append(f"z{g}" if e == 1 else f"z{g}^{e}")
    return "*".join(parts)


def parse_word(text: str) -> Word:
    """Parse words like ``z1*z2^-1`` or ``1`` (identity)."""
    s = text.strip()
    if s == "1":
        return IDENTITY
    if not s:
        raise ValueError("empty word text")
    raw: list[Syllable] = []
    for piece in s.split("*"):
        piece = piece.strip()
        if not piece.startswith("z"):
            raise ValueError(f"bad syllable {piece!r}")
        body = piece[1:]
        if "^" in body:
            gs, es = body.split("^", 1)
        else:
            gs, es = body, "1"
        try:
            g = int(gs)
            e = int(es)
        except ValueError:
            raise ValueError(f"bad syllable {piece!r}") from None
        if g < 1:
            raise ValueError(f"generator index must be >= 1 in {piece!r}")
        if e == 0:
            raise ValueError(f"exponent 0 not allowed in {piece!r}")
        raw.append((g, e))
    return reduce(raw)


def rand_word(rng, max_gen: int = 5, max_syll: int = 4, max_exp: int = 3) -> Word:
    """Seeded random reduced word (possibly identity)."""
    length = rng.randint(0, max_syll)
    out: list[Syllable] = []
    prev = 0
    for _ in range(length):
        if max_gen == 1:
            if prev == 1:
                break
            g = 1
        else:
            g = rng.randint(1, max_gen - 1) if prev else rng.randint(1, max_gen)
            if prev and g >= prev:
                g += 1
        e = rng.randint(1, max_exp) * rng.choice((1, -1))
        out.append((g, e))
        prev = g
    return tuple(out)

