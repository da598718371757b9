import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import example, given, strategies as st

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


def depth(t) -> int:
    """The number of nodes on a longest root-to-leaf path of t, walked on an
    explicit stack; the library has no use for it."""
    best, stack = 0, [(t, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        if isinstance(node, Nu):
            stack.append((node.child, d + 1))
        elif isinstance(node, G):
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return best


def test_depth():
    assert depth(Var(1)) == 1
    assert depth(Nu(wd.gen(1), Var(1))) == 2
    assert depth(G(Var(1), Nu(wd.gen(2), Var(2)))) == 3


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
        t = tm.parse_term(s, {})
        assert tm.parse_term(tm.format_term(t), {}) == t


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
    assert tm.parse_term(tm.format_term(t), {}) is t


def test_equal_constructions_are_one_node():
    a = G(Nu(wd.parse_word("z1*z2"), Var(2)), Var(1))
    b = G(Nu(((1, 1), (2, 1)), Var(2)), Var(1))
    assert a is b
    assert tm.parse_term(" g( nu(z1*z2 , x2),x1 ) ", {}) is a
    assert G(Var(1), Var(2)) is not G(Var(2), Var(1))
    assert Nu(wd.gen(1), Var(1)) is not Nu(wd.gen(2), Var(1))
    assert (a.arity, a.star, a.content, depth(a)) == (2, 1, frozenset({1, 2}), 3)
    with pytest.raises(AttributeError):
        a.arity = 5
    with pytest.raises(AttributeError):
        del a.left
    assert a.arity == 2


FIELDS = ("index", "coeff", "child", "left", "right", "arity", "star", "content",
          "bad", "__class__")
NODES = {Var: lambda: Var(4), Nu: lambda: Nu(wd.gen(3), Var(4)),
         G: lambda: G(Var(4), Nu(wd.gen(3), Var(4)))}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", list(NODES), ids=lambda kind: kind.__name__)
def test_no_field_of_any_node_can_be_assigned_or_deleted(kind, field):
    node = NODES[kind]()
    before = {name: getattr(node, name, None) for name in FIELDS}
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(node, field, Var(5))
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(node, field)
    assert {name: getattr(node, name, None) for name in FIELDS} == before
    assert type(node) is kind and NODES[kind]() is node


def intern_key(node) -> tuple:
    if type(node) is Var:
        return (Var, node.index)
    if type(node) is Nu:
        return (Nu, node.coeff, node.child)
    return (G, node.left, node.right)


def test_every_way_of_building_a_node_gives_its_public_class():
    # sampled, parsed (each parse finds the sampled nodes) and built directly
    pool = [wd.gen(1), wd.parse_word("z2*z3")]
    built = tm.sample_terms(5, 3, pool, seed=3, count=40)
    built += [tm.parse_term(tm.format_term(t), {}) for t in built]
    built += [G(Var(7), Nu(wd.gen(9), Var(8)))]
    stack, seen = list(built), 0
    while stack:
        node = stack.pop()
        seen += 1
        assert type(node) in (Var, Nu, G)
        assert tm._NODES[intern_key(node)]() is node
        stack += [getattr(node, f) for f in ("child", "left", "right") if hasattr(node, f)]
    assert seen > 200


def test_a_node_whose_fields_fail_is_never_entered():
    x = Var(1)
    not_a_word = ((1,),)  # hashable, so it is looked up, but its content fails
    with pytest.raises(ValueError) as failed:
        Nu(not_a_word, x)
    assert failed.value.__traceback__ is not None  # the failed frame lives on
    assert (Nu, not_a_word, x) not in tm._NODES
    with pytest.raises(ValueError):  # built again, not found half built
        Nu(not_a_word, x)


def test_intern_table_holds_one_weak_entry_per_live_node():
    gc.collect()
    before = len(tm._NODES)
    k = 10**30 + 17  # an index no other test builds
    t = G(Var(k), Nu(wd.gen(3), Var(k)))
    assert G(Var(k), Nu(wd.gen(3), Var(k))) is t  # built twice, one object
    nodes = {(Var, k): t.left, (Nu, wd.gen(3), t.left): t.right,
             (G, t.left, t.right): t}
    assert all(tm._NODES[key]() is node for key, node in nodes.items())
    assert len(tm._NODES) == before + 3
    alive = [weakref.ref(node) for node in nodes.values()]
    del t, nodes
    gc.collect()
    assert [ref() for ref in alive] == [None] * 3
    assert len(tm._NODES) == before  # dead nodes leave the table


def test_a_stale_callback_leaves_the_newer_entry():
    key = (Var, 10**30 + 18)
    node = Var(key[1])
    old = tm._NODES[key]
    callback = old.__callback__  # a dead ref no longer holds its callback
    del node
    assert key not in tm._NODES and old() is None
    node = Var(key[1])  # the same term, built again
    new = tm._NODES[key]
    assert new is not old and new() is node
    callback(old)  # the old ref's own callback, run late
    assert tm._NODES[key] is new
    assert Var(key[1]) is node
    del node
    assert key not in tm._NODES


def gen_term_by_randint(rng, budget, max_var, pool):
    """The former ``gen_term`` of ``sample_terms``, through ``rng.randint``
    and ``rng.randrange``: the oracle for its stream."""
    if budget <= 1:
        return Var(rng.randint(1, max_var))
    roll = rng.random()
    if roll < 0.25:
        return Var(rng.randint(1, max_var))
    if roll < 0.55 and pool:
        return Nu(pool[rng.randrange(len(pool))],
                  gen_term_by_randint(rng, budget - 1, max_var, pool))
    return G(gen_term_by_randint(rng, budget - 1, max_var, pool),
             gen_term_by_randint(rng, budget - 1, max_var, pool))


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


@given(st.integers(1, 8), st.integers(1, 9), st.integers(0, 8), st.integers())
@example(8, 8, 8, 0)  # powers of two: every draw below them takes one bit more
@example(5, 1, 1, 1)  # a draw below 1 still reads one bit
@example(6, 4, 2, -(2**100))
def test_sample_terms_keeps_the_randint_stream(depth, max_var, pool_size, seed):
    # the pinned corpora above and the golden reports hold a few seeds; this
    # holds the stream, and the state it leaves, at any seed and pool size
    pool = [wd.gen(i) for i in range(1, pool_size + 1)]
    fast, oracle = random.Random(seed), random.Random(seed)
    gen_term = tm._term_sampler(fast, max_var, pool)
    for _ in range(20):
        assert gen_term(depth) is gen_term_by_randint(oracle, depth, max_var, pool)
    assert fast.random() == oracle.random()


# the exact messages: reading a closer as it stands must not change any
GARBAGE = {
    "": "cannot parse term at ''",
    "x0y": "trailing input 'y'",
    "nu(z1)": "expected ',' after nu coefficient",
    "g(x1)": "expected ',' inside g(...)",
    "g(x1, x2": "expected ')' closing g(...)",
    "h(x1, x2)": "cannot parse term at 'h(x1, x2)'",
    "x1 x2": "trailing input ' x2'",
    # a variable's index runs over every str.isdigit character, as it always did
    "g(x1², x2)": "invalid literal for int() with base 10: '1²'",
    # closers after space, after nothing and in the wrong place
    "g(x1 x2)": "expected ',' inside g(...)",
    "g(x1 ; x2)": "expected ',' inside g(...)",
    "g(x1,x2 ]": "expected ')' closing g(...)",
    "nu(z1, x1": "expected ')' closing nu(...)",
    "nu(z1, x1,": "expected ')' closing nu(...)",
    "g(x1,": "cannot parse term at ''",
    "g(x1, x2))": "trailing input ')'",
    "g(x, x1)": "bad variable in 'x, x1)'",
}


def test_parse_rejects_garbage():
    for text, message in GARBAGE.items():
        with pytest.raises(ValueError) as err:
            tm.parse_term(text, {})
        assert str(err.value) == message, text


WHITESPACE = "".join(c for c in map(chr, range(0x110000)) if c.isspace())


def spaced_format(t, space) -> str:
    """format_term(t) with a run ``space()`` at every token boundary inside
    it, in place of the one space after each comma."""
    if type(t) is Var:
        return f"x{t.index}"
    if type(t) is Nu:
        first = wd.format_word(t.coeff)
        second = spaced_format(t.child, space)
    else:
        first, second = spaced_format(t.left, space), spaced_format(t.right, space)
    head = "nu(" if type(t) is Nu else "g("
    return f"{head}{space()}{first}{space()},{space()}{second}{space()})"


@given(_TERMS, st.data())
def test_space_at_every_token_boundary_parses_to_the_same_node(t, data):
    runs = st.text(st.sampled_from(WHITESPACE), max_size=3)
    text = spaced_format(t, lambda: data.draw(runs))
    assert tm.parse_term(data.draw(runs) + text + data.draw(runs), {}) is t


def test_space_runs_cover_unicode():
    assert len(WHITESPACE) == 29 and {"\u2003", "\x1c", "\x85"} <= set(WHITESPACE)
    assert spaced_format(G(Nu(wd.gen(1), Var(2)), Var(1)), lambda: "") == "g(nu(z1,x2),x1)"


def test_parse_reads_each_coefficient_text_once_a_call(monkeypatch):
    calls = []
    parse_word = wd.parse_word
    monkeypatch.setattr(wd, "parse_word", lambda text: calls.append(text) or parse_word(text))
    text = "g(nu(z1*z2, x1), g(nu(z1*z2, x2), nu( z3 , nu(z1*z2, x1))))"
    c, z3 = parse_word("z1*z2"), wd.gen(3)
    want = G(Nu(c, Var(1)), G(Nu(c, Var(2)), Nu(z3, Nu(c, Var(1)))))
    for _ in range(2):  # a fresh table each call: each distinct text once
        calls.clear()
        assert tm.parse_term(text, {}) == want
        assert sorted(calls) == [" z3 ", "z1*z2"]
    coeffs = {}  # one table for a batch: a text is parsed in the first term only
    calls.clear()
    for _ in range(2):
        assert tm.parse_term(text, coeffs) == want
    assert sorted(calls) == [" z3 ", "z1*z2"]
    assert coeffs == {" z3 ": z3, "z1*z2": c}
    # a bad coefficient still fails when its nu(...) closes, after its term
    with pytest.raises(ValueError, match="generator index must be >= 1 in 'z0'"):
        tm.parse_term("g(nu(z1, x1), nu(z1, nu(z0, x2)))", {})
    with pytest.raises(ValueError, match="expected ',' inside g"):
        tm.parse_term("nu(z0, g(x1))", {})


def test_parse_bounds_nesting_not_size():
    # a balanced term with far more than MAX_NESTING nodes is shallow
    t = Var(1)
    for _ in range(9):
        t = G(t, Nu(wd.gen(2), t))
    text = tm.format_term(t)
    assert text.count("(") > tm.MAX_NESTING
    assert tm.parse_term(text, {}) == t
    deep = "nu(z1, " * (tm.MAX_NESTING + 1) + "x1" + ")" * (tm.MAX_NESTING + 1)
    with pytest.raises(ValueError, match="nested more than"):
        tm.parse_term(deep, {})


def test_sample_terms_distinct_bounded_deterministic():
    pool = [wd.gen(1), wd.gen(2), wd.parse_word("z1*z2")]
    a = tm.sample_terms(4, 3, pool, seed=11, count=150)
    b = tm.sample_terms(4, 3, pool, seed=11, count=150)
    assert a == b
    assert len(set(a)) == 150
    for t in a:
        m = tm.meta(t)
        assert depth(t) <= 4
        assert m.arity <= 3
        assert m.content <= frozenset({1, 2})
    assert any(isinstance(t, G) or tm._has_g(t) for t in a)


def test_sample_terms_small_space_errors():
    with pytest.raises(ValueError):
        tm.sample_terms(1, 1, [], seed=0, count=5)  # only x1 exists at depth 1


def test_sample_terms_depth_bound():
    pool = [wd.gen(1)]
    assert tm.sample_terms(tm.MAX_SAMPLE_DEPTH, 3, pool, seed=0, count=3)
    with pytest.raises(ValueError, match="at most"):
        tm.sample_terms(tm.MAX_SAMPLE_DEPTH + 1, 3, pool, seed=0, count=3)
