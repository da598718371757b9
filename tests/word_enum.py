"""Words for tests: the free group's reduced words in canonical order, an
unbounded ``hypothesis`` strategy, the former ``rand_word`` as oracle, the
positivity test for witness tuples and the decoder of the h-map's free
indices.

Test oracles walk every reduced word, or every tuple of positive words, in
one fixed well-order; the library never does, so these live beside the tests.
"""

from __future__ import annotations

from typing import Iterator

from hypothesis import strategies as st

from indalg.words import IDENTITY, Syllable, Word, reduce

# exponents and generators both small and unbounded (up to 4,000 bits)
exponents = st.one_of(st.integers(1, 40), st.integers(1, 2**64)).flatmap(
    lambda e: st.sampled_from((e, -e))
)
generators = st.one_of(st.integers(1, 12), st.integers(1, 2**4000))
words = st.lists(st.tuples(generators, exponents), max_size=6).map(reduce)
# up to 30 syllables: a common tail of two words, as right translation makes
long_words = st.lists(st.tuples(generators, exponents), max_size=30).map(reduce)


def rand_word_by_randint(rng, max_gen: int = 5, max_syll: int = 4,
                         max_exp: int = 3) -> Word:
    """The former body of ``words.rand_word``, through ``rng.randint`` and
    ``rng.choice``: the oracle for its stream."""
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


def is_positive(u: Word) -> bool:
    """True iff u is a nonempty product of generators with positive exponents."""
    return bool(u) and all(e > 0 for _, e in u)


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


def decode_free_even(idx: int) -> Word:
    """The word the h-map assigns the non-pinned index idx: the inverse of
    ``counterexample._free_even`` after ``counterexample._encode``."""
    if idx % 2 or idx < 2 or idx in (6, 8, 10):
        raise ValueError(f"{idx} is not a non-pinned image value")
    m = (idx - 2) // 2 if idx in (2, 4) else (idx - 8) // 2
    n = m + 1
    digits: list[int] = []
    while n > 1:
        n, r = divmod(n, 3)
        digits.append(r)
    digits.reverse()
    syllables: list[tuple[int, int]] = []
    nums: list[int] = []
    cur = 0
    started = False
    for d in digits:
        if d == 0:
            if not started:
                raise ValueError("malformed encoding")
            nums.append(cur)
            cur, started = 0, False
        else:
            cur = 2 * cur + d
            started = True
    if started or len(nums) % 2:
        raise ValueError("malformed encoding")
    for g, z in zip(nums[::2], nums[1::2]):
        e = (z + 1) // 2 if z % 2 else -(z // 2)
        syllables.append((g, e))
    return reduce(syllables)
