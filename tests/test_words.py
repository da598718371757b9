import random

import pytest

from indalg import words as wd
from indalg.words import IDENTITY, gen, inv, mul

import word_enum as we


def test_reduce_cancels_adjacent():
    assert wd.reduce([(1, 2), (1, -2)]) == IDENTITY
    assert wd.reduce([(1, 1), (2, 1), (2, -1), (1, 1)]) == ((1, 2),)
    assert wd.reduce([(3, 1), (3, 2)]) == ((3, 3),)


def test_reduce_rejects_bad_generator_and_drops_zero_exp():
    with pytest.raises(ValueError):
        wd.reduce([(0, 1)])
    with pytest.raises(ValueError):
        wd.reduce([("z1", 1)])
    assert wd.reduce([(1, 0)]) == IDENTITY


def test_mul_inv_group_laws():
    rng = random.Random(42)
    for _ in range(400):
        u = wd.rand_word(rng)
        v = wd.rand_word(rng)
        w = wd.rand_word(rng)
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        assert mul(u, inv(u)) == IDENTITY
        assert mul(inv(u), u) == IDENTITY
        assert mul(u, IDENTITY) == u
        assert inv(mul(u, v)) == mul(inv(v), inv(u))


def test_is_positive():
    assert not wd.is_positive(IDENTITY)  # identity excluded
    assert wd.is_positive(gen(3))
    assert wd.is_positive(mul(gen(1, 2), gen(2)))
    assert not wd.is_positive(gen(1, -1))
    assert not wd.is_positive(mul(gen(1), gen(2, -3)))


def test_gen_content_and_lengths():
    w = wd.parse_word("z1^2*z3^-1*z1")
    assert wd.gen_content(w) == frozenset({1, 3})
    assert we.letter_len(w) == 4
    assert we.max_gen(w) == 3
    assert we.letter_len(IDENTITY) == 0


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        w = wd.rand_word(rng)
        assert wd.parse_word(wd.format_word(w)) == w
    assert wd.parse_word("1") == IDENTITY
    assert wd.format_word(IDENTITY) == "1"
    assert wd.parse_word("z2^-3") == ((2, -3),)


def test_parse_rejects_garbage():
    for bad in ("z0", "z1^0", "x3", "z1^", "z-1"):
        with pytest.raises(ValueError):
            wd.parse_word(bad)


def test_enumeration_is_graded_and_injective():
    seen = []
    it = we.enumerate_words()
    for _ in range(500):
        seen.append(next(it))
    assert seen[0] == IDENTITY
    assert len(set(seen)) == len(seen)
    keys = [we.sort_key(w) for w in seen]
    assert keys == sorted(keys)


def test_positive_words_all_positive():
    it = we.positive_words()
    batch = [next(it) for _ in range(200)]
    assert all(wd.is_positive(w) for w in batch)
    assert len(set(batch)) == len(batch)


def test_positive_tuples_cover_small_pairs():
    it = we.positive_tuples(2)
    batch = [next(it) for _ in range(300)]
    assert (gen(1), gen(2)) in batch
    assert (gen(2), gen(1)) in batch
    assert all(len(t) == 2 for t in batch)


def test_rand_word_reduced_and_bounded():
    rng = random.Random(0)
    for _ in range(200):
        w = wd.rand_word(rng, max_gen=4, max_syll=3, max_exp=2)
        assert w == wd.reduce(w)
        assert we.max_gen(w) <= 4
        for _, e in w:
            assert abs(e) <= 2 + 2  # merges can sum adjacent exponents
