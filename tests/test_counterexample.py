import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from indalg import counterexample as ce
from indalg import terms as tm
from indalg import words as wd
from indalg.counterexample import HMap, NotForm2, WitnessExhausted
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


_exponents = st.one_of(st.integers(1, 40), st.integers(1, 2**64)).flatmap(
    lambda e: st.sampled_from((e, -e))
)
_generators = st.one_of(st.integers(1, 12), st.integers(1, 2**4000))
_words = st.lists(st.tuples(_generators, _exponents), max_size=6).map(wd.reduce)


@given(_words)
def test_encode_matches_the_trit_loop(w):
    assert ce._encode(w) == _encode_by_trits(w)


@given(_words)
def test_decode_inverts_encode(w):
    assert ce._decode_free_even(ce._free_even(ce._encode(w))) == w


def test_encode_past_the_int_string_limit():
    # over 6,000 trits, beyond the default limit of 4,300 digits that
    # int(str, 3) accepts in one piece
    limit = sys.get_int_max_str_digits()
    w = ((2**6000 + 1, 1),)
    n = ce._encode(w)
    assert n == _encode_by_trits(w)
    assert ce._decode_free_even(ce._free_even(n)) == w
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
        assert ce._decode_free_even(h.lookup(w)) == w


def test_decode_rejects_non_image_values():
    for bad in (0, 1, 3, 6, 8, 10, -2):
        with pytest.raises(ValueError):
            ce._decode_free_even(bad)


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


def test_extra_pins_and_collision_guard():
    z9 = wd.parse_word("z9")
    h = HMap(extra_pins={z9: 1000})
    assert h.lookup(z9) == 1000
    with pytest.raises(ValueError):
        HMap(extra_pins={z9: 7})  # odd values rejected
    # pin stealing another word's computed index trips the guard at lookup
    clash = HMap(extra_pins={z9: 228})
    with pytest.raises(ValueError):
        clash.lookup(wd.parse_word("z1"))


def test_pinned_g_values():
    h = HMap()
    z = wd.parse_word
    assert h.g(z("z1"), z("z2")) == z("z6*z2")
    assert h.g(z("z3"), z("z2")) == z("z8*z2")
    assert h.g(z("z1"), z("z4")) == z("z10*z4")


def test_right_translation_homogeneity():
    report = ce.check_homogeneity(HMap(), samples=2000, seed=5)
    assert report["ok"]
    assert report["samples"] == 2000
    assert report["failures"] == []


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


def test_classify_split_stars_and_first_candidates():
    h = HMap()
    f = ce.classify(G(Var(1), Var(2)), h)
    assert f.form == 2 and f.case == "g-split-stars"
    first = list(itertools.islice(f.candidates(), 4))
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
    for mu in itertools.islice(f.candidates(), 6):
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
        assert memo == fresh  # every field but the candidate stream
        if memo.form == 2:
            first = list(itertools.islice(memo.candidates(), 5))
            assert first == list(itertools.islice(fresh.candidates(), 5))
    distinct = set().union(*map(_subterms, corpus))
    assert set(shared._forms) == distinct
    assert len(distinct) < sum(len(_subterms(t)) for t in corpus)  # shared subterms


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
        assert all(wd.is_positive(w) for w in s.mu)
        value = tm.evaluate(t, s.mu, h)
        assert s.prefix == mul(value, inv(s.mu[f.star - 1]))
    assert samples[0].mu == (wd.gen(1), wd.gen(2))
    assert samples[0].prefix == wd.parse_word("z6")
    assert samples[0].fresh_gen == 6


def test_sample_witnesses_rejects_form1():
    h = HMap()
    f = ce.classify(Var(1), h)
    with pytest.raises(NotForm2):
        ce.sample_witnesses(f, Var(1), h, 1)


def test_sample_witnesses_budget():
    # a synthetic stream that never yields a usable tuple must exhaust honestly
    form = ce.TermForm(
        2, 1, 1, case="synthetic", candidates=lambda: itertools.repeat((IDENTITY,))
    )
    with pytest.raises(WitnessExhausted):
        ce.sample_witnesses(form, Var(1), HMap(), 1)


def test_refute_distributivity_basic():
    h = HMap()
    t = G(Var(1), Var(2))
    r = ce.refute_distributivity(t, h)
    assert r.a == wd.parse_word("z3")  # least odd generator avoiding mu and content
    assert r.holds
    assert r.lhs == mul(r.a, tm.evaluate(t, r.mu, h))
    assert r.rhs == tm.evaluate(t, tuple(mul(r.a, w) for w in r.mu), h)


def test_refute_distributivity_avoids_content():
    h = HMap()
    t = G(Nu(wd.parse_word("z3"), Var(1)), Var(2))
    r = ce.refute_distributivity(t, h)
    blocked = set(tm.meta(t).content)
    for w in r.mu:
        blocked |= wd.gen_content(w)
    assert wd.gen_content(r.a) == {min(k for k in range(1, 50) if k % 2 and k not in blocked)}
    assert r.holds


def test_refute_distributivity_reuses_a_given_form():
    h = HMap()
    pool = [wd.gen(1), wd.gen(2), wd.parse_word("z3*z1")]
    terms = tm.sample_terms(5, 3, pool, seed=4, count=40)
    form2 = [t for t in terms if ce.classify(t, h).form == 2]
    assert len(form2) >= 10
    for t in form2:
        reused = ce.refute_distributivity(t, h, form=ce.classify(t, h))
        fresh = ce.refute_distributivity(t, h)
        assert dataclasses.astuple(reused) == dataclasses.astuple(fresh)


def test_refute_requires_form2():
    h = HMap()
    with pytest.raises(NotForm2):
        ce.refute_distributivity(Nu(wd.gen(2), Var(1)), h)


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
