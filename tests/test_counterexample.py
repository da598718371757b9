import itertools
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from indalg import counterexample as ce
from indalg import terms as tm
from indalg import words as wd
from indalg.counterexample import HMap, NotForm2, WitnessExhausted
from indalg.report import max_digits, printable
from indalg.terms import G, Nu, Var
from indalg.words import IDENTITY, inv, mul

import word_enum as we


def test_encode_injective_on_enumerated_words():
    seen = {}
    it = we.enumerate_words()
    for _ in range(2000):
        w = next(it)
        n = ce._encode(w)
        assert n >= 0
        assert n not in seen, (w, seen[n])
        seen[n] = w
    assert ce._encode(IDENTITY) == 0


def _encode_by_trits(w):
    """The former digit-at-a-time encoder, kept as the oracle for _encode."""
    n = 1
    for g, e in w:
        z = 2 * e - 1 if e > 0 else -2 * e
        for v in (g, z):
            digits = []
            while v:
                v, r = divmod(v - 1, 2)
                digits.append(r + 1)
            for d in reversed(digits):
                n = 3 * n + d
            n = 3 * n  # separator
    return n - 1


@given(we.words)
def test_encode_matches_the_trit_loop(w):
    assert ce._encode(w) == _encode_by_trits(w)


def _trit_count(w):
    # the sentinel, then v + 1's binary digits after the leading 1 and a
    # separator for each generator and zigzagged exponent v
    return 1 + sum((g + 1).bit_length() + (2 * e if e > 0 else 1 - 2 * e).bit_length()
                   for g, e in w)


def test_encode_at_the_table_edge_and_past_one_chunk():
    # values 510-514 straddle the 512-entry trit table, as generators and as
    # zigzagged exponents (2e - 1 for e > 0, -2e for e < 0)
    zigzag = {510: -255, 511: 256, 512: -256, 513: 257, 514: -257}
    cases = [((v, 1),) for v in zigzag] + [((3, e),) for e in zigzag.values()]
    cases.append(tuple((v, e) for v, e in zigzag.items()))
    # just over the 600 trits that one int(..., 3) call converts
    long_small = tuple((2 * k + 1, 255 + k) for k in range(40))
    long_large = ((2**597, 1),)
    assert _trit_count(long_small) == 623 and _trit_count(long_large) == 601
    for w in cases + [long_small, long_large]:
        assert ce._encode(w) == _encode_by_trits(w)
        assert we.decode_free_even(ce._free_even(ce._encode(w))) == w


@given(we.words)
def test_decode_inverts_encode(w):
    assert we.decode_free_even(ce._free_even(ce._encode(w))) == w


def test_encode_past_the_int_string_limit():
    # over 6,000 trits, beyond the default limit of 4,300 digits that
    # int(str, 3) accepts in one piece
    limit = sys.get_int_max_str_digits()
    w = ((2**6000 + 1, 1),)
    n = ce._encode(w)
    assert n == _encode_by_trits(w)
    assert we.decode_free_even(ce._free_even(n)) == w
    assert sys.get_int_max_str_digits() == limit


def test_free_even_skips_pinned_values():
    values = [ce._free_even(m) for m in range(200)]
    assert values[:4] == [2, 4, 12, 14]
    assert all(v % 2 == 0 for v in values)
    assert not {6, 8, 10} & set(values)
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_decode_is_inverse_of_assignment():
    # oracle route: the decoder rebuilds the word from its assigned index
    h = HMap()
    it = we.enumerate_words()
    for _ in range(1500):
        w = next(it)
        if w in ce.PINS:
            continue
        assert we.decode_free_even(h.lookup(w)) == w


def test_decode_rejects_non_image_values():
    for bad in (0, 1, 3, 6, 8, 10, -2):
        with pytest.raises(ValueError):
            we.decode_free_even(bad)


def test_lookup_golden_values():
    h = HMap()
    assert h.lookup(IDENTITY) == 2
    assert h.lookup(wd.parse_word("z1")) == 228
    assert h.lookup(wd.parse_word("z3")) == 714
    for w, v in ce.PINS.items():
        assert h.lookup(w) == v


def test_lookup_injective_across_mixed_queries():
    h = HMap()
    seen: dict[int, tuple] = {}
    it = we.enumerate_words()
    for _ in range(800):
        w = next(it)
        v = h.lookup(w)
        assert v % 2 == 0 and v >= 2
        assert v not in seen or seen[v] == w
        seen[v] = w


def test_pinned_g_values():
    h = HMap()
    z = wd.parse_word
    assert h.g(z("z1"), z("z2")) == z("z6*z2")
    assert h.g(z("z3"), z("z2")) == z("z8*z2")
    assert h.g(z("z1"), z("z4")) == z("z10*z4")


def _former_g(h, w1, w2):
    return mul(((h.lookup(mul(w1, inv(w2))), 1),), w2)


@given(we.words, we.words)
def test_g_matches_the_former_product(w1, w2):
    h = HMap()
    assert h.g(w1, w2) == _former_g(h, w1, w2)


@given(we.words, we.words, we.exponents)
@example((), ((1, 1),), -1)  # h(1) = 2: z2 * z2^-1 * z1 cancels to z1
@example(((1, 1), (2, -1)), ((12, 2),), 1)  # the pinned index 6 merges into z6
def test_g_matches_the_former_product_when_w2_starts_with_the_index(d, rest, e):
    # w1 * w2^-1 = d and w2 opens with h(d), so the product merges
    h = HMap()
    idx = h.lookup(d)
    w2 = wd.reduce(((idx, e),) + rest)
    assume(w2 and w2[0][0] == idx)
    w1 = mul(d, w2)
    assert h.lookup(wd.div(w1, w2)) == idx
    assert h.g(w1, w2) == _former_g(h, w1, w2)


def _g_by_composition(h, w1, w2):
    """HMap.g as one lookup and one product, kept as its oracle: the index of
    w1 w2^-1, multiplied onto w2 when w2 opens with it, else prepended."""
    idx = h.lookup(wd.div(w1, w2))
    if w2 and w2[0][0] == idx:
        return mul(((idx, 1),), w2)
    return ((idx, 1),) + w2


even_indices = st.integers(6, 2**70).map(lambda k: 2 * k)
OPENINGS = ("free", "w2 opens with an index", "w2 opens with h(w1 w2^-1)")


@given(we.words, we.words, we.long_words, st.sampled_from(OPENINGS), we.exponents,
       even_indices)
@example(((3, 1),), ((5, 2),), ((2**4000, 1), (7, -2)) * 10, OPENINGS[2], -1, 12)
@example((), (), ((9, 1),), OPENINGS[2], 2, 12)  # w2 = z2^2 z9 = w1
def test_g_matches_its_composition_on_long_common_tails(a, b, tail, opening, e, idx):
    h = HMap()
    if opening == OPENINGS[2]:  # w1 w2^-1 = a, and w2 opens with h(a)
        idx = h.lookup(a)
    if opening != OPENINGS[0]:
        b = wd.reduce(((idx, e),) + b)
    w2 = mul(b, tail)
    w1 = mul(a, w2) if opening == OPENINGS[2] else mul(a, tail)
    assert h.g(w1, w2) == _g_by_composition(h, w1, w2)


@given(we.words, we.long_words)
@example((), ())  # w2 = z2^-1, so g(w1, w2) is the identity
@example(((1, 1), (2, -1)), ((12, 1),))  # d is a pinned word
def test_g_cancels_the_new_syllable_into_w2(d, rest):
    # w1 w2^-1 = d and w2 opens with z_h(d)^-1
    h = HMap()
    idx = h.lookup(d)
    assume(not rest or rest[0][0] != idx)
    w2 = ((idx, -1),) + rest
    w1 = mul(d, w2)
    assert h.g(w1, w2) == _g_by_composition(h, w1, w2) == rest


def test_right_translation_homogeneity():
    check = ce.check_homogeneity(HMap(), samples=2000, seed=5)
    assert check.name == "right_translation_homogeneity"
    assert check.outcome == "pass"
    assert check.details == {"samples": 2000, "failures": []}


# generator indices up to 2^70, exponents up to 2^64
wide_words = st.lists(
    st.tuples(st.one_of(st.integers(1, 12), st.integers(1, 2**70)), we.exponents),
    max_size=6,
).map(wd.reduce)
STARTS = ("free", "w2 starts with the index", "w2 w' starts with the index")


@given(wide_words, wide_words, wide_words, st.sampled_from(STARTS), we.exponents)
@example((), ((1, 1),), (), STARTS[2], -1)  # h.g(w1 w', w2 w') cancels to 1
@example(((3, 1),), ((5, 2),), ((2**70, -7),), STARTS[2], 2)
@example((), ((1, 1),), ((1, -1),), STARTS[1], 1)  # w2 w' = z2 = z_h(1)
def test_g_is_right_translation_homogeneous_on_wide_words(w1, w2, wp, start, e):
    h = HMap()
    if start == STARTS[1]:  # w1 w2^-1 = d, and w2 opens with z_h(d)^e
        d = w1
        w2 = wd.reduce(((h.lookup(d), e),) + w2)
        w1 = mul(d, w2)
    elif start == STARTS[2]:  # w' = w2^-1 z_idx^e w', so w2 w' = z_idx^e w'
        idx = h.lookup(wd.div(w1, w2))
        wp = wd.div(wd.reduce(((idx, e),) + wp), w2)
    assert h.g(mul(w1, wp), mul(w2, wp)) == mul(h.g(w1, w2), wp)


def test_classify_variable_and_nu_lift():
    h = HMap()
    f = ce.classify(Var(2), h)
    assert (f.form, f.case, f.prefix, f.star) == (1, "var", IDENTITY, 2)
    t = Nu(wd.parse_word("z3*z1"), Var(1))
    f = ce.classify(t, h)
    assert f.form == 1 and f.case == "nu-lift"
    assert f.prefix == wd.parse_word("z3*z1")


def test_classify_aligned_g_has_constant_prefix():
    h = HMap()
    t = G(Nu(wd.parse_word("z3"), Var(1)), Var(1))
    f = ce.classify(t, h)
    assert f.form == 1 and f.case == "g-aligned"
    assert f.prefix == wd.parse_word("z714")
    # the classified prefix matches direct evaluation
    for mu in [(wd.gen(1),), (wd.parse_word("z2*z5"),)]:
        assert tm.evaluate(t, mu, h) == mul(f.prefix, mu[0])


def _plan_stream(f):
    return ce._fresh_pair_tuples(f.arity, *f.plan)


def test_classify_split_stars_and_first_candidates():
    h = HMap()
    f = ce.classify(G(Var(1), Var(2)), h)
    assert f.form == 2 and f.case == "g-split-stars"
    first = list(itertools.islice(_plan_stream(f), 4))
    assert first[0] == (wd.gen(1), wd.gen(2))
    assert first[1] == (wd.gen(2), wd.gen(1))
    assert all(len(t) == 2 for t in first)


def test_classify_propagation_cases():
    h = HMap()
    inner = G(Var(1), Var(2))  # Form 2
    assert ce.classify(Nu(wd.gen(1), inner), h).case == "nu-g-split-stars"
    assert ce.classify(G(Var(1), inner), h).case == "g-right-varying"
    assert ce.classify(G(inner, Var(2)), h).case == "g-left-varying"
    f = ce.classify(G(inner, Var(1)), h)
    assert f.case == "g-left-varying-split"
    for mu in itertools.islice(_plan_stream(f), 6):
        assert len(mu) == 2


def _subterms(t):
    out, stack = set(), [t]
    while stack:
        node = stack.pop()
        if node not in out:
            out.add(node)
            if isinstance(node, Nu):
                stack.append(node.child)
            elif isinstance(node, G):
                stack += [node.left, node.right]
    return out


def test_classify_memo_matches_fresh_maps_and_holds_each_subterm_once():
    shared = HMap()
    pool = [wd.gen(1), wd.gen(2), wd.parse_word("z3*z1")]
    corpus = tm.sample_terms(6, 3, pool, seed=21, count=80)
    for t in corpus:
        memo = ce.classify(t, shared)
        assert ce.classify(t, shared) is memo
        fresh = ce.classify(t, HMap())
        assert memo == fresh and hash(memo) == hash(fresh)  # the plan too
        if memo.form == 2:
            first = list(itertools.islice(_plan_stream(memo), 5))
            assert first == list(itertools.islice(_plan_stream(fresh), 5))
    distinct = set().union(*map(_subterms, corpus))
    assert set(shared._forms) == distinct
    assert len(distinct) < sum(len(_subterms(t)) for t in corpus)  # shared subterms


def _closure_pad(stream, n):
    z1 = wd.gen(1)

    def padded():
        for tup in stream():
            yield tup + (z1,) * (n - len(tup))

    return padded


def _closure_fresh_pairs(n, pos1, pos2, allowed):
    z1 = wd.gen(1)

    def stream():
        chosen = []
        k = 0
        while True:
            k += 1
            if not allowed(k):
                continue
            for other in chosen:
                for u1, u2 in ((other, k), (k, other)):
                    base = [z1] * n
                    base[pos1 - 1] = wd.gen(u1)
                    base[pos2 - 1] = wd.gen(u2)
                    yield tuple(base)
            chosen.append(k)

    return stream


def closure_candidates(t, h):
    """The former witness builder, kept as the oracle for witness plans: a
    zero-argument stream for a Form 2 term, in which each g level pads its
    varying child's stream with z1 up to its own arity; None for Form 1."""
    if isinstance(t, Var):
        return None
    if isinstance(t, Nu):
        return closure_candidates(t.child, h)
    left, right, n = ce.classify(t.left, h), ce.classify(t.right, h), t.arity
    if right.form == 2:
        return _closure_pad(closure_candidates(t.right, h), n)
    if left.form == 1:
        if left.star == right.star:
            return None
        excluded = wd.gen_content(left.prefix) | wd.gen_content(right.prefix)
        return _closure_fresh_pairs(n, left.star, right.star,
                                    lambda k: k not in excluded)
    if left.star == right.star:
        return _closure_pad(closure_candidates(t.left, h), n)
    excluded = t.content | wd.gen_content(right.prefix)
    return _closure_fresh_pairs(n, left.star, right.star,
                                lambda k: k % 2 == 1 and k not in excluded)


POOLS = (
    [wd.gen(1), wd.gen(2), wd.gen(3), wd.parse_word("z1*z2"), wd.parse_word("z3*z1")],
    [wd.gen(2), wd.parse_word("z4*z1"), wd.parse_word("z5^2*z2^-1"), wd.gen(7)],
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 7), st.integers(2, 4),
       st.sampled_from(POOLS))
def test_witness_plans_stream_what_the_padded_closures_did(seed, depth, max_var, pool):
    h = HMap()
    form2 = 0
    for t in tm.sample_terms(depth, max_var, pool, seed=seed, count=12):
        f = ce.classify(t, h)
        assert (closure_candidates(t, h) is None) == (f.form == 1)
        if f.form == 1:
            assert f.plan is None
            continue
        form2 += 1
        hash(f)  # a plain value
        first = list(itertools.islice(_plan_stream(f), 12))
        assert first == list(itertools.islice(closure_candidates(t, h)(), 12))
        for mu in first:
            assert len(mu) == f.arity == t.arity
            assert all(we.is_positive(w) for w in mu)
    assume(form2)


def _aligned_chain(levels):
    return tm.parse_term("g(" * levels + "x1" + ", x1)" * levels, {})


def test_printable_is_exact_at_the_print_limit():
    # the bit-length shortcut must not decide the numbers near 10**limit
    limit = max_digits()
    for n in (10**limit - 1, -(10**limit - 1), 2 ** (3 * limit), 1, 0):
        assert printable(n)
        str(n)
    for n in (10**limit, 2 ** (4 * limit)):
        assert not printable(n)
        with pytest.raises(ValueError):
            str(n)


def test_classify_refuses_an_h_index_too_long_to_print():
    # each aligned level encodes the last h-index into the next, about 2.5
    # times as many bits, so 18 levels pass the print limit and 28 took 12 s
    f = ce.classify(_aligned_chain(12), HMap())
    assert f.form == 1 and f.case == "g-aligned"
    for levels in (18, 40):
        with pytest.raises(ValueError, match="h-index .* more than 4300 digits"):
            ce.classify(_aligned_chain(levels), HMap())


def test_form1_prefix_content_invariant():
    h = HMap()
    pool = [wd.gen(1), wd.gen(3), wd.parse_word("z1*z2")]
    for t in tm.sample_terms(4, 3, pool, seed=3, count=120):
        f = ce.classify(t, h)
        if f.form == 1:
            for g in wd.gen_content(f.prefix):
                assert g % 2 == 0 or g in tm.meta(t).content


def test_sample_witnesses_fresh_generators_distinct():
    h = HMap()
    t = G(Var(1), Var(2))
    f = ce.classify(t, h)
    samples = ce.sample_witnesses(f, t, h, 30)
    assert len(samples) == 30
    fresh = [s.fresh_gen for s in samples]
    assert len(set(fresh)) == 30
    for s in samples:
        assert all(we.is_positive(w) for w in s.mu)
        value = tm.evaluate(t, s.mu, h)
        assert s.prefix == mul(value, inv(s.mu[f.star - 1]))
        assert s.value == value
    assert samples[0].mu == (wd.gen(1), wd.gen(2))
    assert samples[0].prefix == wd.parse_word("z6")
    assert samples[0].fresh_gen == 6


def test_sample_witnesses_rejects_form1():
    h = HMap()
    f = ce.classify(Var(1), h)
    with pytest.raises(NotForm2):
        ce.sample_witnesses(f, Var(1), h, 1)


def test_sample_witnesses_budget(monkeypatch):
    # each candidate gives at most one sample, so more samples than the
    # budget must exhaust it honestly
    h = HMap()
    t = G(Var(1), Var(2))
    f = ce.classify(t, h)
    monkeypatch.setattr(ce, "SAMPLE_BUDGET", 5)
    assert len(ce.sample_witnesses(f, t, h, 5)) == 5
    with pytest.raises(WitnessExhausted, match="after 5 of 6 samples"):
        ce.sample_witnesses(f, t, h, 6)


def test_refute_distributivity_basic():
    h = HMap()
    t = G(Var(1), Var(2))
    r = ce.refute_distributivity(t, h, ce.classify(t, h))
    assert r.a == wd.parse_word("z3")  # least odd generator avoiding mu and content
    assert r.holds
    assert r.lhs == mul(r.a, tm.evaluate(t, r.mu, h))
    assert r.rhs == tm.evaluate(t, tuple(mul(r.a, w) for w in r.mu), h)


def test_refute_distributivity_avoids_content():
    h = HMap()
    t = G(Nu(wd.parse_word("z3"), Var(1)), Var(2))
    r = ce.refute_distributivity(t, h, ce.classify(t, h))
    blocked = set(tm.meta(t).content)
    for w in r.mu:
        blocked |= wd.gen_content(w)
    assert wd.gen_content(r.a) == {min(k for k in range(1, 50) if k % 2 and k not in blocked)}
    assert r.holds


@pytest.mark.parametrize("make", [
    lambda: ce.TermForm(2, 2, 1, "split", plan=(1, 2, frozenset({3}), True)),
    lambda: ce.WitnessSample((wd.gen(1), wd.gen(2)), IDENTITY, 2, wd.gen(1)),
    lambda: ce.Refutation(wd.gen(3), (wd.gen(1),), wd.gen(1), wd.gen(2)),
])
def test_records_are_values_that_refuse_assignment(make):
    record, twin = make(), make()
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_refute_requires_form2():
    h = HMap()
    t = Nu(wd.gen(2), Var(1))
    with pytest.raises(NotForm2):
        ce.refute_distributivity(t, h, ce.classify(t, h))


def test_classifier_agrees_with_prefix_constancy_oracle():
    # independent route: evaluate on many tuples and watch the prefix
    h = HMap()
    pool = [wd.gen(1), wd.gen(2), wd.parse_word("z3*z1")]
    terms = tm.sample_terms(4, 2, pool, seed=9, count=60)
    for t in terms:
        f = ce.classify(t, h)
        m = tm.meta(t)
        prefixes = set()
        for mu in itertools.islice(we.positive_tuples(m.arity), 60):
            value = tm.evaluate(t, mu, h)
            prefixes.add(mul(value, inv(mu[m.star - 1])))
        if f.form == 1:
            assert prefixes == {f.prefix}
        else:
            assert len(prefixes) > 1
