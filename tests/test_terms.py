import hashlib

import pytest
from hypothesis import given, strategies as st

from indalg import terms as tm
from indalg import words as wd
from indalg.counterexample import HMap
from indalg.terms import G, Nu, Var


def test_meta_arity_star_content():
    t = G(Nu(wd.parse_word("z3"), Var(2)), Var(1))
    m = tm.meta(t)
    assert m.arity == 2
    assert m.star == 1  # rightmost variable
    assert m.content == frozenset({3})

    u = Nu(wd.parse_word("z1*z2"), G(Var(1), Var(3)))
    mu = tm.meta(u)
    assert mu.arity == 3
    assert mu.star == 3
    assert mu.content == frozenset({1, 2})


def test_meta_rejects_bad_variable():
    with pytest.raises(ValueError):
        tm.meta(Var(0))


def test_bad_variable_is_built_and_reported_leftmost_by_meta():
    t = G(Nu(wd.gen(1), Var(1)), G(Var(0), Var(-2)))  # builds without raising
    assert tm.format_term(t) == "g(nu(z1, x1), g(x0, x-2))"
    with pytest.raises(ValueError, match="got 0$"):
        tm.meta(t)
    with pytest.raises(ValueError, match="got -2$"):
        tm.meta(G(Var(1), Var(-2)))
    with pytest.raises(TypeError, match="not a term"):
        tm.meta("x1")
    with pytest.raises(TypeError, match="not a term"):
        G(Var(1), "x2")


def test_depth():
    assert tm.depth(Var(1)) == 1
    assert tm.depth(Nu(wd.gen(1), Var(1))) == 2
    assert tm.depth(G(Var(1), Nu(wd.gen(2), Var(2)))) == 3


def test_evaluate_variable_projection_and_nu():
    h = HMap()
    args = (wd.parse_word("z1"), wd.parse_word("z2^3"))
    assert tm.evaluate(Var(2), args, h) == args[1]
    t = Nu(wd.parse_word("z5"), Var(1))
    assert tm.evaluate(t, args, h) == wd.parse_word("z5*z1")


def test_evaluate_arity_check():
    h = HMap()
    with pytest.raises(tm.ArityError):
        tm.evaluate(Var(3), (wd.gen(1),), h)


def test_evaluate_g_matches_direct_call():
    h = HMap()
    a, b = wd.parse_word("z1*z2"), wd.parse_word("z2")
    assert tm.evaluate(G(Var(1), Var(2)), (a, b), h) == h.g(a, b)


def test_format_parse_round_trip():
    texts = [
        "x1",
        "nu(z2^-1, x3)",
        "g(x1, x2)",
        "g(nu(z1*z3, x2), g(x1, x1))",
        "nu(1, x1)",
    ]
    for s in texts:
        t = tm.parse_term(s)
        assert tm.parse_term(tm.format_term(t)) == t


_COEFFS = st.lists(
    st.tuples(st.integers(1, 9), st.integers(-3, 3)), max_size=3
).map(wd.reduce)
_TERMS = st.recursive(
    st.integers(0, 12).map(Var),
    lambda kids: st.one_of(st.builds(Nu, _COEFFS, kids), st.builds(G, kids, kids)),
    max_leaves=24,
)


@given(_TERMS)
def test_parse_of_format_is_the_same_node(t):
    assert tm.parse_term(tm.format_term(t)) is t


def test_equal_constructions_are_one_node():
    a = G(Nu(wd.parse_word("z1*z2"), Var(2)), Var(1))
    b = G(Nu(((1, 1), (2, 1)), Var(2)), Var(1))
    assert a is b
    assert tm.parse_term(" g( nu(z1*z2 , x2),x1 ) ") is a
    assert G(Var(1), Var(2)) is not G(Var(2), Var(1))
    assert Nu(wd.gen(1), Var(1)) is not Nu(wd.gen(2), Var(1))
    assert (a.arity, a.star, a.content, a.depth) == (2, 1, frozenset({1, 2}), 3)
    with pytest.raises(AttributeError):
        a.arity = 5
    with pytest.raises(AttributeError):
        del a.left
    assert a.arity == 2


# sha256 prefixes of the formatted corpora, recorded before terms were interned
SAMPLED_CORPORA = {
    (4, 3, 11, 150): "8dddb9edf19394e1",
    (6, 3, 0, 50): "061cf1a02e11785b",
    (6, 3, 12345, 50): "21e12df26d5ab454",
    (2, 2, 7, 10): "1612f6508f23e984",
}


def test_sample_terms_unchanged_for_fixed_seeds():
    z = wd.gen
    pool = [z(1), z(2), z(3), wd.mul(z(1), z(2)), wd.mul(z(3), z(1))]
    for (depth, max_var, seed, count), want in SAMPLED_CORPORA.items():
        corpus = tm.sample_terms(depth, max_var, pool, seed=seed, count=count)
        text = "\n".join(tm.format_term(t) for t in corpus)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


def test_parse_rejects_garbage():
    for bad in ("", "x0y", "nu(z1)", "g(x1)", "g(x1, x2", "h(x1, x2)", "x1 x2"):
        with pytest.raises(ValueError):
            tm.parse_term(bad)
    # a variable's index runs over every str.isdigit character, as it always did
    with pytest.raises(ValueError, match="invalid literal for int"):
        tm.parse_term("g(x1², x2)")


def test_parse_bounds_nesting_not_size():
    # a balanced term with far more than MAX_NESTING nodes is shallow
    t = Var(1)
    for _ in range(9):
        t = G(t, Nu(wd.gen(2), t))
    text = tm.format_term(t)
    assert text.count("(") > tm.MAX_NESTING
    assert tm.parse_term(text) == t
    deep = "nu(z1, " * (tm.MAX_NESTING + 1) + "x1" + ")" * (tm.MAX_NESTING + 1)
    with pytest.raises(ValueError, match="nested more than"):
        tm.parse_term(deep)


def test_sample_terms_distinct_bounded_deterministic():
    pool = [wd.gen(1), wd.gen(2), wd.parse_word("z1*z2")]
    a = tm.sample_terms(4, 3, pool, seed=11, count=150)
    b = tm.sample_terms(4, 3, pool, seed=11, count=150)
    assert a == b
    assert len(set(a)) == 150
    for t in a:
        m = tm.meta(t)
        assert tm.depth(t) <= 4
        assert m.arity <= 3
        assert m.content <= frozenset({1, 2})
    assert any(isinstance(t, G) or tm._has_g(t) for t in a)


def test_sample_terms_small_space_errors():
    with pytest.raises(ValueError):
        tm.sample_terms(1, 1, [], seed=0, count=5)  # only x1 exists at depth 1
