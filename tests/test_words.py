import random

import pytest
from hypothesis import example, given, strategies as st

from indalg import words as wd
from indalg.words import IDENTITY, div, gen, inv, mul

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


@given(we.words, we.words, we.words)
def test_free_group_laws(u, v, w):
    assert mul(mul(u, v), w) == mul(u, mul(v, w))
    assert mul(u, IDENTITY) == mul(IDENTITY, u) == u
    assert mul(u, inv(u)) == mul(inv(u), u) == IDENTITY
    assert inv(mul(u, v)) == mul(inv(v), inv(u))
    assert wd.reduce(mul(u, v)) == mul(u, v)


@given(we.words, we.words, we.long_words)
@example(((1, 1),), ((1, 2),), ((2, 1), (1, 1)))  # z1 z1^-2 merges once past the tail
@example(((1, 1),), (), ((1, -1), (2, 3)))  # u's own syllable cancels into the tail
def test_div_is_product_with_the_inverse(u, v, tail):
    assert div(u, v) == mul(u, inv(v))
    assert div(mul(u, v), v) == u
    assert div(u, u) == IDENTITY
    # a long common tail, walked back before u and v part
    ut, vt = mul(u, tail), mul(v, tail)
    assert div(ut, vt) == mul(ut, inv(vt)) == mul(u, inv(v))
    assert div(ut, tail) == u


@given(we.words)
def test_format_parse_round_trip_property(w):
    assert wd.parse_word(wd.format_word(w)) == w


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


loose = st.one_of(st.integers(-3, 3), st.integers(), st.booleans(), st.floats(),
                  st.text(max_size=2), st.none())


@given(loose)
@example(True)
@example(2)
def test_gen_is_the_reduced_single_syllable(i):
    # the same word, down to a bool kept as given, or the same ValueError
    assert repr(_outcome(gen, i)) == repr(_outcome(wd.reduce, [(i, 1)]))


def test_is_positive():
    assert not we.is_positive(IDENTITY)  # identity excluded
    assert we.is_positive(gen(3))
    assert we.is_positive(wd.parse_word("z1^2*z2"))
    assert not we.is_positive(wd.parse_word("z1^-1"))
    assert not we.is_positive(wd.parse_word("z1*z2^-3"))


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


@pytest.mark.parametrize("bad", ["z1_0", "z1^1_0", "z+3", "z1^+2", "z2*z_3"])
def test_parse_refuses_what_only_int_would_accept(bad):
    # int() reads "1_0" as 10 and "+3" as 3; a syllable is digits only
    with pytest.raises(ValueError, match="bad syllable"):
        wd.parse_word(bad)
    assert wd.parse_word("z10^-2*z3") == ((10, -2), (3, 1))


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
    assert all(we.is_positive(w) for w in batch)
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
        w = wd.rand_word(rng)
        assert w == wd.reduce(w)
        assert len(w) <= 4
        assert we.max_gen(w) <= 6
        assert all(1 <= abs(e) <= 3 for _, e in w)


# the one shape rand_word draws: (max_gen, max_syll, max_exp) of the oracle
@pytest.mark.parametrize("params", [(6, 4, 3)])
def test_rand_word_keeps_the_randint_stream(params):
    # reports cannot catch a changed stream: homogeneity holds on any words
    fast, oracle = random.Random(11), random.Random(11)
    for _ in range(20_000):
        assert wd.rand_word(fast) == we.rand_word_by_randint(oracle, *params)
    assert fast.random() == oracle.random()
