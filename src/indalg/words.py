"""Reduced-word arithmetic in the free group on generators z1, z2, z3, ...

A word is a tuple of syllables ``(gen, exp)`` with ``gen >= 1`` and
``exp != 0``; adjacent syllables carry distinct generators.  The empty tuple
is the identity.  Generator indices are unbounded Python ints.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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


def letter_len(u: Word) -> int:
    return sum(abs(e) for _, e in u)


def max_gen(u: Word) -> int:
    return max((g for g, _ in u), default=0)


def _letter_keys(u: Word) -> tuple[int, ...]:
    # letter order: z1 < z1^-1 < z2 < z2^-1 < ...
    keys: list[int] = []
    for g, e in u:
        k = 2 * (g - 1) + (0 if e > 0 else 1)
        keys.extend([k] * abs(e))
    return tuple(keys)


def sort_key(u: Word) -> tuple:
    """Canonical total order key: ball index, then letter length, then letter-lex.

    The ball of a word is max(letter length, max generator index); every ball
    is finite, so this is a well-order with the identity first.
    """
    length = letter_len(u)
    return (max(length, max_gen(u)), length, _letter_keys(u))


def _ball_words(b: int, positive_only: bool = False) -> Iterator[Word]:
    """All reduced words whose ball index equals b, in (length, letter-lex) order."""
    step = 2 if positive_only else 1
    for length in range(1, b + 1):
        need_top = length < b  # shorter words are in this ball only via gen b
        seq: list[tuple[int, int]] = []

        def rec(pos: int, has_top: bool) -> Iterator[Word]:
            if pos == length:
                if has_top or not need_top:
                    yield reduce(seq)
                return
            for key in range(0, 2 * b, step):
                g = key // 2 + 1
                s = 1 if key % 2 == 0 else -1
                if seq and seq[-1][0] == g and seq[-1][1] == -s:
                    continue  # not reduced
                if need_top and not has_top and g != b and pos == length - 1:
                    continue  # no room left for generator b
                seq.append((g, s))
                yield from rec(pos + 1, has_top or g == b)
                seq.pop()

        yield from rec(0, False)


def enumerate_words(max_ball: int | None = None) -> Iterator[Word]:
    """Enumerate all reduced words in canonical order (see sort_key)."""
    yield IDENTITY
    b = 1
    while max_ball is None or b <= max_ball:
        yield from _ball_words(b)
        b += 1


def positive_words() -> Iterator[Word]:
    """Enumerate F+ (nonempty positive words) in canonical order."""
    b = 1
    while True:
        yield from _ball_words(b, positive_only=True)
        b += 1


def positive_tuples(n: int) -> Iterator[tuple[Word, ...]]:
    """Enumerate F+^n tuples, graded by the total of component positions."""
    pool: list[Word] = []
    source = positive_words()
    total = n
    while True:
        while len(pool) < total:
            pool.append(next(source))
        # all index tuples (1-based) summing to `total`
        def parts(rem: int, slots: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if slots == 1:
                if rem >= 1:
                    yield tuple(acc + [rem])
                return
            for first in range(1, rem - slots + 2):
                yield from parts(rem - first, slots - 1, acc + [first])

        for idx in parts(total, n, []):
            yield tuple(pool[i - 1] for i in idx)
        total += 1


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

