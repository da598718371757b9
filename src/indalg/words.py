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
    return tuple([(g, -e) for g, e in reversed(u)])


def div(u: Word, v: Word) -> Word:
    """u * v**-1 (reduced) without building v**-1: u and v are reduced, so
    past their common trailing syllables at most one pair merges.  One walk
    back over both tails finds where they part."""
    i, j = len(u), len(v)
    while i and j and u[i - 1] == v[j - 1]:
        i -= 1
        j -= 1
    if i and j and u[i - 1][0] == v[j - 1][0]:
        g, e = u[i - 1]
        return u[: i - 1] + ((g, e - v[j - 1][1]),) + inv(v[: j - 1])
    return u[:i] + inv(v[:j])


def gen(i: int) -> Word:
    """The word z_i, checked as ``reduce`` checks a generator."""
    if not (isinstance(i, int) and i >= 1):
        raise ValueError(f"generator index must be a positive int, got {i!r}")
    return ((i, 1),)


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
    """Parse words like ``z1*z2^-1`` or ``1`` (identity).  A syllable's
    index and exponent are what ``int`` reads, less ``_`` and ``+``."""
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
        if "_" in body or "+" in body:  # int() would accept "1_0" and "+3"
            raise ValueError(f"bad syllable {piece!r}")
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


def rand_word(rng) -> Word:
    """Seeded random reduced word (possibly identity) of at most 4
    syllables, each a generator z1..z6 with exponent +-1..3.

    Stream contract: the words, and the state ``rng`` is left in, are those
    of ``rng.randint(0, 4)`` for the length and, per syllable,
    ``rng.randint(1, 6)`` for the generator (``rng.randint(1, 5)``, shifted
    past the previous one, after the first), ``rng.randint(1, 3)`` for the
    exponent and ``rng.choice((1, -1))`` for its sign.  Each draw below n
    is read straight from ``rng.getrandbits`` by their rule:
    ``n.bit_length()`` bits, drawn again while the value is n or more."""
    bits = rng.getrandbits
    length = bits(3)  # below 5
    while length > 4:
        length = bits(3)
    out: list[Syllable] = []
    prev = 0
    for _ in range(length):
        n = 5 if prev else 6  # below 5 skipping prev, or below 6
        g = bits(3)
        while g >= n:
            g = bits(3)
        g += 1 if not prev or g + 1 < prev else 2
        e = bits(2)  # below 3
        while e >= 3:
            e = bits(2)
        sign = bits(2)  # rng.choice((1, -1)) draws below 2
        while sign >= 2:
            sign = bits(2)
        out.append((g, -1 - e if sign else 1 + e))
        prev = g
    return tuple(out)
