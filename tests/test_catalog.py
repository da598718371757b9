import gc
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from indalg import catalog as cat, cli
from indalg.catalog import InvalidParams, TooLarge


# (kind, params, field): a list parameter given something else
SHAPE_ERRORS = [
    ("linear", {"q": 3, "a0": 5}, "a0"),
    ("affine", {"q": 3, "a0": [5]}, "a0 entry"),
    ("linear", {"q": 3, "a0": None}, "a0"),
    ("group_action", {"size": 5, "generators": 5}, "generators"),
    ("group_action", {"size": 5, "generators": [5]}, "generators entry"),
    ("group_action", {"size": 5, "constants": 5}, "constants"),
]


def test_make_instance_rejects_bad_params():
    with pytest.raises(InvalidParams):
        cat.make_instance("nope")
    with pytest.raises(InvalidParams):
        cat.make_instance("linear", q=4, dim=1, a0=[])
    with pytest.raises(InvalidParams):
        cat.make_instance("rank0", size=17)
    with pytest.raises(InvalidParams):
        cat.make_instance("group_action", size=3, generators=[[0, 1]], constants=[])
    # integer fields take integers only: no truncation, no booleans
    for kind, params in [("rank0", {"size": 3.9}), ("linear", {"q": 3.0}),
                         ("linear", {"q": 3, "dim": True}),
                         ("affine", {"q": 3, "dim": 1, "a0": [[1.0]]}),
                         ("q_homog_field", {"q": "3"}),
                         ("group_action", {"size": 3, "generators": [[0, 2, True]]}),
                         ("group_action", {"size": 5, "generators": [[0, 1, 2, 3, 4]],
                                           "constants": [True, 3]})]:
        with pytest.raises(InvalidParams):
            cat.make_instance(kind, **params)
    # list fields take lists only, and the error names the field
    for kind, params, field in SHAPE_ERRORS:
        with pytest.raises(InvalidParams, match=f"^{field} must be a list"):
            cat.make_instance(kind, **params)


# per kind, payloads each refused for one bad value of a known key, type
# faults before range faults; a kind that takes no key has only {}
BAD_VALUES = {
    "rank0": [{"size": 3.5}, {"size": 9}],
    "linear": [{"q": "3"}, {"q": 4}, {"a0": None}, {"dim": 1, "a0": [[3]]}],
    "affine": [{"dim": True}, {"dim": 3}],
    "exceptional": [{}],
    "group_action": [{"constants": 0}, {"size": 9}, {"constants": [5]}],
    "q_homog_field": [{"q": 3.0}, {"q": 4}],
    "semilattice": [{}],
}


@pytest.mark.parametrize("kind", sorted(cat.KINDS))
def test_an_unexpected_key_is_refused_before_any_value(kind):
    """make_instance refuses every key a kind's builder does not take before
    the builder reads a value, so one rule names the same fault first for
    every kind."""
    assert BAD_VALUES.keys() == cat.KINDS.keys()
    for params in BAD_VALUES[kind]:
        if params:
            with pytest.raises(InvalidParams) as bad:
                cat.make_instance(kind, **params)
            assert "unexpected" not in str(bad.value)
        with pytest.raises(InvalidParams,
                           match=r"^unexpected parameters: \['bogus'\]$"):
            cat.make_instance(kind, **params, bogus=1)
    with pytest.raises(InvalidParams,
                       match=r"^unexpected parameters: \['a', 'bogus'\]$"):
        cat.make_instance(kind, bogus=1, a=2)
    # the kind is positional only, so a "kind" key is a parameter like any other
    with pytest.raises(InvalidParams, match=r"^unexpected parameters: \['kind'\]$"):
        cat.make_instance(kind, kind=1)


def test_op_indexing_row_major():
    semi = cat.make_instance("semilattice")
    (join,) = semi.ops
    assert join.arity == 2
    # commutative, idempotent, associative over the whole carrier
    for a, b, c in itertools.product(range(semi.size), repeat=3):
        assert join(a, b) == join(b, a)
        assert join(a, a) == a
        assert join(join(a, b), c) == join(a, join(b, c))
    assert join(0, 1) == 2  # two incomparable atoms join to the top


@pytest.mark.parametrize("make", [
    lambda: cat.Op("f", 1, 2, bytes((1, 0))),
    lambda: cat.ExchangeResult(False, ((0,), 1, 2)),
    lambda: cat.UnaryClone((bytes((1, 0)),), (bytes((0, 0)),)),
    lambda: cat.WitnessSet("w", (cat.Op("f", 1, 2, bytes((1, 0))),)),
    lambda: cat.WitnessReport(True, (), ("f",), ()),
])
def test_records_are_values_that_refuse_assignment(make):
    record, twin = make(), make()
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_algebra_refuses_assignment_and_builds_its_ops_once():
    calls = []
    ops = (cat.Op("f", 1, 2, bytes((1, 0))),)
    alg = cat.FiniteAlgebra("k", 2, ops, lambda: calls.append(1) or ops)
    for name in ("kind", "size", "gen_ops", "build_ops", "ops", "other"):
        with pytest.raises(AttributeError):
            setattr(alg, name, None)
    with pytest.raises(AttributeError):
        del alg.kind
    assert calls == []
    assert alg.ops is alg.ops is ops and calls == [1]
    assert (alg.kind, alg.size, alg.gen_ops) == ("k", 2, ops)


def test_closure_semilattice():
    semi = cat.make_instance("semilattice")
    assert cat.closure(semi, [0, 1]) == frozenset({0, 1, 2})
    assert cat.closure(semi, [0, 2]) == frozenset({0, 2})
    assert cat.closure(semi, []) == frozenset()


def test_closure_constants_always_included():
    rank0 = cat.make_instance("rank0", size=3)
    assert cat.closure(rank0, []) == frozenset({0, 1, 2})
    ga = cat.make_instance(
        "group_action", size=5, generators=[[0, 2, 1, 4, 3]], constants=[0]
    )
    assert cat.closure(ga, [1]) == frozenset({0, 1, 2})
    assert cat.closure(ga, [3]) == frozenset({0, 3, 4})


def test_closure_matches_brute_force_on_linear():
    # oracle: iterate all basic ops to a fixpoint instead of the generator subset
    alg = cat.make_instance("linear", q=3, dim=1, a0=[[1]])
    for start in ([], [0], [1], [2], [0, 1]):
        cur = set(start)
        cur.update(op.table[0] for op in alg.ops if op.is_constant())
        changed = True
        while changed:
            changed = False
            for op in alg.ops:
                for args in itertools.product(sorted(cur), repeat=op.arity):
                    v = op(*args)
                    if v not in cur:
                        cur.add(v)
                        changed = True
        assert cat.closure(alg, start) == frozenset(cur), start


def test_exchange_holds_on_all_default_instances():
    for kind, params in cat.DEFAULT_INSTANCES:
        alg = cat.make_instance(kind, **params)
        result = cat.check_exchange(alg)
        assert result.holds, (kind, params, result.witness)


def test_exchange_fails_on_semilattice_control():
    result = cat.check_exchange(cat.make_instance("semilattice"))
    assert not result.holds
    assert result.witness == ((0,), 2, 1)
    # replay the witness: y lands in <X+{z}> but z never lands in <X+{y}>
    semi = cat.make_instance("semilattice")
    (x_set, y, z) = result.witness
    assert y in cat.closure(semi, set(x_set) | {z})
    assert y not in cat.closure(semi, x_set)
    assert z not in cat.closure(semi, set(x_set) | {y})


def test_exchange_size_cap():
    alg = cat.make_instance("rank0", size=3)
    big = cat.FiniteAlgebra(
        kind=alg.kind,
        size=cat.EXCHANGE_CAP + 1,
        gen_ops=(),
        build_ops=tuple,
    )
    with pytest.raises(TooLarge):
        cat.check_exchange(big)


def test_endomorphisms_exceptional():
    exc = cat.make_instance("exceptional")
    endos = cat.endomorphisms(exc)
    assert len(endos) == 8
    assert tuple(range(4)) in endos  # identity
    i_op = next(op for op in exc.ops if op.name == "i")
    q_op = next(op for op in exc.ops if op.name == "q")
    for e in endos:
        for x in range(exc.size):
            assert e[i_op(x)] == i_op(e[x])
        for xs in itertools.product(range(exc.size), repeat=3):
            assert e[q_op(*xs)] == q_op(*(e[x] for x in xs))


def test_endomorphisms_linear_trivial_pair():
    lin = cat.make_instance("linear", q=2, dim=1, a0=[])
    assert sorted(cat.endomorphisms(lin)) == [(0, 0), (0, 1)]


def test_endomorphisms_size_eight():
    assert cat.endomorphisms(cat.make_instance("rank0", size=8)) == [tuple(range(8))]
    cycle = cat.make_instance(
        "group_action", size=8, generators=[[1, 2, 3, 4, 5, 6, 7, 0]], constants=[0]
    )
    assert cat.endomorphisms(cycle) == [tuple(range(8))]


def test_endomorphisms_size_cap():
    # 8^7 generator assignments exceed ENDO_ASSIGNMENT_CAP: refused before any search
    trivial = cat.make_instance(
        "group_action", size=8, generators=[list(range(8))], constants=[0]
    )
    with pytest.raises(TooLarge):
        cat.endomorphisms(trivial)


def greedy_basis(alg) -> list[int]:
    """A basis read off ``closure``: the smallest element outside the
    closure so far, added until the closure is the whole carrier."""
    basis, have = [], cat.closure(alg, [])
    while len(have) < alg.size:
        basis.append(min(set(range(alg.size)) - have))
        have = cat.closure(alg, basis)
    return basis


# An independence algebra is free on each basis: every map from a basis
# into A extends to exactly one endomorphism, so |End(A)| = |A|^rank.
@pytest.mark.parametrize("kind,params", [
    pytest.param(kind, params, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 14: exceptional has 8 endomorphisms, "
                            "not 4**2 = 16; the instance is still to be decided"))
    if kind == "exceptional" else (kind, params)
    for kind, params in cat.DEFAULT_INSTANCES
])
def test_default_instances_are_free_on_a_basis(kind, params):
    alg = cat.make_instance(kind, **params)
    assert len(cat.endomorphisms(alg)) == alg.size ** len(greedy_basis(alg))


def test_unary_clone_exceptional():
    exc = cat.make_instance("exceptional")
    clone = cat.unary_clone(exc)
    assert len(clone.constants) == 0
    tables = set(clone.t_ops)
    i_op = next(op for op in exc.ops if op.name == "i")
    assert bytes(i_op(x) for x in range(exc.size)) in tables
    assert bytes(range(4)) in tables  # i o i = identity
    assert len(tables) == 2


def test_witness_set_variants():
    names = {}
    for kind, params in cat.DEFAULT_INSTANCES:
        alg = cat.make_instance(kind, **params)
        names.setdefault(kind, cat.witness_set(alg, "standard").name)
    assert names["rank0"] == "unary-ops"
    assert names["group_action"] == "unary-ops"
    assert names["linear"] == "maltsev+unary"
    assert names["exceptional"] == "i,q"
    assert names["affine"] == "all-basic-ops"
    assert names["q_homog_field"] == "all-basic-ops"
    lin = cat.make_instance("linear", q=3, dim=1, a0=[[1]])
    assert cat.witness_set(lin, "plus").name == "plus+unary"
    # "plus" names a linear witness only; no kind has another variant
    for alg, variant in [(lin, "bogus"), (cat.make_instance("rank0"), "plus"),
                         (cat.make_instance("exceptional"), "bogus")]:
        with pytest.raises(InvalidParams, match="no witness variant"):
            cat.witness_set(alg, variant)


@pytest.mark.parametrize("params", [
    {"q": 3, "dim": 1, "a0": []}, {"q": 3, "dim": 1, "a0": [[0]]},
    {"q": 3, "dim": 1, "a0": [[1]]}, {"q": 2, "dim": 2, "a0": []},
    {"q": 2, "dim": 2, "a0": [[0, 1]]}, {"q": 5, "dim": 1, "a0": [[0]]},
])
def test_witness_set_expects_what_the_check_finds(params):
    # plus+unary fails exactly when some constant a in A0 is nonzero
    lin = cat.make_instance("linear", **params)
    shifted = any(any(v) for v in params["a0"])
    for variant, expected in (("standard", "pass"),
                              ("plus", "finding" if shifted else "pass")):
        wit = cat.witness_set(lin, variant)
        assert wit.expected == expected
        assert ("pass" if cat.check_witness(lin, wit).ok else "finding") == expected


def test_witness_reports_pass_on_defaults():
    for kind, params in cat.DEFAULT_INSTANCES:
        alg = cat.make_instance(kind, **params)
        report = cat.check_witness(alg, cat.witness_set(alg, "standard"))
        assert report.ok, (kind, params, report)
        assert report.generates
        assert report.missing == ()
        assert report.non_clone == ()
        assert report.violations == ()


def test_witness_plus_variant_fails_with_pinned_violation():
    lin = cat.make_instance("linear", q=3, dim=1, a0=[[1]])
    report = cat.check_witness(lin, cat.witness_set(lin, "plus"))
    assert not report.ok
    assert report.generates  # plus + unaries still generate every basic op
    assert len(report.violations) == 4
    assert {
        "a": [1, 2, 0],
        "op": "f(1,1)+0",
        "args": [0, 0],
        "lhs": 1,
        "rhs": 2,
    } in report.violations
    # each recorded tuple really violates compatibility
    ops = {op.name: op for op in lin.ops}
    for v in report.violations:
        op = ops[v["op"]]
        a = v["a"]
        assert a[op(*v["args"])] == v["lhs"]
        assert op(*(a[x] for x in v["args"])) == v["rhs"]
        assert v["lhs"] != v["rhs"]


def test_default_catalog_shape():
    algs = cat.default_catalog()
    assert len(algs) == len(cat.DEFAULT_INSTANCES)
    assert [a.kind for a in algs] == [k for k, _ in cat.DEFAULT_INSTANCES]
    for a in algs:
        assert a.gen_ops  # every instance carries a generating op subset
        assert set(a.gen_ops) <= set(a.ops)


# ---------------------------------------------------------------------------
# gen_ops soundness and definitional oracles for the gen_ops-based kernels


GEN_OPS_CASES = list(cat.DEFAULT_INSTANCES) + [
    ("semilattice", {}),
    ("linear", {"q": 3, "dim": 2}),
    ("linear", {"q": 5, "dim": 1}),
    ("affine", {"q": 3, "dim": 2}),
    ("affine", {"q": 5, "dim": 1}),
    ("linear", {"q": 2, "dim": 2, "a0": [[1, 1]]}),
    ("linear", {"q": 2, "dim": 2, "a0": [[1, 0], [0, 1]]}),
    ("affine", {"q": 5, "dim": 2}),
    ("affine", {"q": 3, "dim": 1, "a0": []}),
]


@pytest.mark.parametrize("kind,params", GEN_OPS_CASES)
def test_gen_ops_generate_every_basic_op(kind, params):
    alg = cat.make_instance(kind, **params)
    # the lane precondition of _compose: an entry at or above the size
    # would carry into the next entry's lane and give a wrong table
    for op in alg.ops:
        assert op.size == alg.size
        assert len(op.table) == op.size ** op.arity
        assert max(op.table) < op.size
    gen = {(op.arity, op.table) for op in alg.gen_ops}
    targets = {(op.arity, op.table) for op in alg.ops} - gen
    assert cat.generated_covers(alg, alg.gen_ops, targets) == targets


# every (kind, q, dim) make_instance accepts; the 25-element fields take
# a0 = [] (shifts by 0 only) to keep the reference loop to about a second
FIELD_OP_CASES = [
    (kind, q, dim, [] if q * dim == 10 else [[1] * dim])
    for kind in ("linear", "affine") for q in cat.FIELD_ORDERS for dim in (1, 2)
] + [("q_homog_field", q, 1, None) for q in cat.FIELD_ORDERS]


def field_params(kind, q, dim, a0) -> dict:
    """make_instance's params for a FIELD_OP_CASES entry."""
    return {"q": q} if kind == "q_homog_field" else {"q": q, "dim": dim, "a0": a0}


@pytest.mark.parametrize("kind,params", [
    c for c in GEN_OPS_CASES if c[0] in ("linear", "affine", "q_homog_field")
] + [(c[0], field_params(*c)) for c in FIELD_OP_CASES])
def test_field_gen_ops_are_their_entries_in_the_full_list(kind, params):
    alg = cat.make_instance(kind, **params)
    repr(alg)
    assert "ops" not in vars(alg)  # neither construction nor repr built them
    full = {op.name: op for op in alg.ops}
    assert [full[op.name] for op in alg.gen_ops] == list(alg.gen_ops)


@pytest.mark.parametrize("q", cat.FIELD_ORDERS)
def test_q_homog_field_is_affine_on_the_line_without_shift_names(q):
    """With dim = 1 and a0 = [] (A0 = {0}), ``affine`` has q_homog_field's
    ops in the same order, each named with a ``+0`` that q_homog_field drops."""
    homog = cat.make_instance("q_homog_field", q=q)
    affine = cat.make_instance("affine", q=q, dim=1, a0=[])
    assert all(op.name.endswith(")+0") for op in affine.ops)
    assert ([op._replace(name=op.name[:-2]) for op in affine.ops]
            == list(homog.ops))


@pytest.mark.parametrize("check,builds",
                         [("exchange", 0), ("clone", 0), ("endos", 0), ("witness", 1)])
def test_only_the_witness_check_builds_the_field_ops(monkeypatch, capsys,
                                                     check, builds):
    calls = []
    init = cat.FiniteAlgebra.__init__

    def counting_init(self, kind, size, gen_ops, build_ops):  # counts ops builds
        init(self, kind, size, gen_ops, lambda: calls.append(kind) or build_ops())

    monkeypatch.setattr(cat.FiniteAlgebra, "__init__", counting_init)
    for kind, params in [("linear", {"q": 3, "dim": 2, "a0": [[1, 0]]}),
                         ("affine", {"q": 3, "dim": 2, "a0": [[2, 1]]}),
                         ("q_homog_field", {"q": 5})]:
        calls.clear()
        argv = ["catalog", "--kind", kind, "--params", json.dumps(params),
                "--check", check]
        assert cli.run(argv) == 0
        assert len(calls) == builds, (kind, check)
    capsys.readouterr()


def test_field_builds_leave_no_cyclic_garbage():
    """A field instance's op tables are freed when the build that made them
    returns: cyclic garbage that outlived a few collections would wait for
    a rare full one, and pile up across reports."""
    gc.collect()
    gc.disable()
    try:
        for kind, params in [("linear", {"q": 3, "dim": 2, "a0": [[1, 0]]}),
                             ("affine", {"q": 5, "dim": 1}),
                             ("q_homog_field", {"q": 3})]:
            assert cat.make_instance(kind, **params).ops
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_field_instance_builds_its_tables_once(monkeypatch, capsys):
    calls = []
    build = cat._field_tables
    monkeypatch.setattr(cat, "_field_tables",
                        lambda *a: calls.append(a) or build(*a))
    for kind, params, tables in [("linear", {"q": 3, "dim": 2, "a0": [[1, 0]]}, (3, 2)),
                                 ("affine", {"q": 5, "dim": 1}, (5, 1)),
                                 ("q_homog_field", {"q": 5}, (5, 1))]:
        calls.clear()
        argv = ["catalog", "--kind", kind, "--params", json.dumps(params),
                "--check", "witness"]  # reads both gen_ops and ops
        assert cli.run(argv) == 0
        assert calls == [tables], kind
    calls.clear()
    algs = cat.default_catalog()
    for alg in algs:
        assert alg.ops  # from the tables built with the instance
    assert len(calls) == sum(alg.kind in ("linear", "affine", "q_homog_field")
                             for alg in algs) > 0
    capsys.readouterr()


def oracle_closure(alg, xs):
    cur = set(xs)
    cur.update(op.table[0] for op in alg.ops if op.is_constant())
    changed = True
    while changed:
        changed = False
        for op in alg.ops:
            for args in itertools.product(sorted(cur), repeat=op.arity):
                v = op(*args)
                if v not in cur:
                    cur.add(v)
                    changed = True
    return frozenset(cur)


def oracle_exchange(alg):
    """Closures of all 2^n subsets over every basic op, then the same scan."""
    n = alg.size
    closed = {oracle_closure(alg, xs) for r in range(n + 1)
              for xs in itertools.combinations(range(n), r)}
    for c in sorted(closed, key=lambda s: (len(s), sorted(s))):
        for z in range(n):
            if z in c:
                continue
            for y in sorted(oracle_closure(alg, c | {z}) - c):
                if z not in oracle_closure(alg, c | {y}):
                    return cat.ExchangeResult(False, (tuple(sorted(c)), y, z))
    return cat.ExchangeResult(True, None)


def oracle_endomorphisms(alg):
    """Every one of the n^n self-maps checked against every basic op."""
    n = alg.size
    return [
        phi for phi in itertools.product(range(n), repeat=n)
        if all(phi[op(*args)] == op(*(phi[a] for a in args))
               for op in alg.ops
               for args in itertools.product(range(n), repeat=op.arity))
    ]


def oracle_unary_clone(alg):
    """The identity closed under every basic op, applied pointwise."""
    n = alg.size
    seen = {bytes(range(n))}
    changed = True
    while changed:
        changed = False
        for op in alg.ops:
            for us in itertools.product(sorted(seen), repeat=op.arity):
                t = bytes(op(*(u[x] for u in us)) for x in range(n))
                if t not in seen:
                    seen.add(t)
                    changed = True
    return cat.UnaryClone(
        tuple(sorted(t for t in seen if len(set(t)) > 1)),
        tuple(sorted(t for t in seen if len(set(t)) == 1)),
    )


def assert_kernels_match_oracles(alg):
    assert cat.endomorphisms(alg) == oracle_endomorphisms(alg)
    assert cat.unary_clone(alg) == oracle_unary_clone(alg)
    assert cat.check_exchange(alg) == oracle_exchange(alg)


ORACLE_CASES = list(cat.DEFAULT_INSTANCES) + [
    ("semilattice", {}),
    ("rank0", {"size": 1}),
    ("rank0", {"size": 6}),
    ("group_action", {"size": 6, "generators": [[1, 2, 0, 4, 5, 3]], "constants": [0]}),
    ("group_action", {"size": 6, "generators": [[1, 0, 3, 2, 5, 4]], "constants": [2, 5]}),
    ("group_action", {"size": 4, "generators": [[0, 1, 2, 3]], "constants": []}),
    ("linear", {"q": 2, "dim": 2, "a0": [[1, 1]]}),
    ("linear", {"q": 5, "dim": 1, "a0": []}),
    ("affine", {"q": 5, "dim": 1}),
]


@pytest.mark.parametrize("kind,params", ORACLE_CASES)
def test_kernels_match_oracles(kind, params):
    assert_kernels_match_oracles(cat.make_instance(kind, **params))


@st.composite
def group_actions(draw):
    size = draw(st.integers(1, 5))
    perms = draw(st.lists(st.permutations(range(size)), min_size=1, max_size=2))
    ident = tuple(range(size))
    must = {x for g in cat._perm_group([tuple(p) for p in perms], size)
            if g != ident for x in range(size) if g[x] == x}
    extra = draw(st.sets(st.integers(0, size - 1)))
    return cat.make_instance("group_action", size=size, generators=perms,
                             constants=sorted(must | extra))


@st.composite
def random_algebras(draw, max_size=4, max_arity=2):
    """Arbitrary small algebras whose generating ops are all their ops."""
    n = draw(st.integers(1, max_size))
    ops = []
    arities = st.integers(1, max_arity)
    for k, arity in enumerate(draw(st.lists(arities, min_size=1, max_size=3))):
        table = draw(st.binary(min_size=n**arity, max_size=n**arity))
        ops.append(cat.Op(f"f{k}", arity, n, bytes(b % n for b in table)))
    ops = tuple(ops)
    return cat.FiniteAlgebra("random", n, ops, lambda: ops)


@settings(max_examples=60, deadline=None)
@given(st.one_of(group_actions(), random_algebras()))
def test_kernels_match_oracles_on_generated_algebras(alg):
    assert_kernels_match_oracles(alg)


# ternary ops too: their derivations index tables by three placed elements
@settings(max_examples=60, deadline=None)
@given(random_algebras(max_size=4, max_arity=3))
def test_endomorphisms_match_oracle_on_ternary_algebras(alg):
    assert cat.endomorphisms(alg) == oracle_endomorphisms(alg)


# ---------------------------------------------------------------------------
# whole-table closure against the per-tuple fixpoint it replaced


def fixpoint_closure(alg, xs):
    """The semi-naive fixpoint over gen_ops, one ``Op.__call__`` per tuple,
    after checking the derivation it yields with each element: ``None, ()``
    for each start element, all of them first, and for every other element
    an op whose value at arguments yielded before it is that element."""
    start = set(xs)
    start.update(op.table[0] for op in alg.gen_ops if op.is_constant())
    seen = []
    for v, op, args in cat._fixpoint(alg.gen_ops, start, lambda op, args: op(*args)):
        assert (op is None) == (len(seen) < len(start))
        if op is None:
            assert v in start and args == ()
        else:
            assert op(*args) == v and set(args) <= set(seen)
        seen.append(v)
    return frozenset(seen)


# size 9 and arity 3: tables of 7**3 = 343 entries and more take the 16-bit
# lanes of _compose
@settings(max_examples=200, deadline=None)
@given(random_algebras(max_size=9, max_arity=3), st.integers(0, 2**9 - 1))
def test_closure_matches_fixpoint_on_generated_algebras(alg, mask):
    xs = [x for x in range(alg.size) if mask >> x & 1]
    assert cat.closure(alg, xs) == fixpoint_closure(alg, xs)


@pytest.mark.parametrize("kind,params", [
    ("linear", {"q": 3, "dim": 2, "a0": [[1, 0]]}),
    ("affine", {"q": 3, "dim": 2, "a0": [[2, 1]]}),
])
def test_closure_matches_fixpoint_on_every_subset(kind, params):
    alg = cat.make_instance(kind, **params)
    for mask in range(2**alg.size):
        xs = [x for x in range(alg.size) if mask >> x & 1]
        assert cat.closure(alg, xs) == fixpoint_closure(alg, xs), xs


# ---------------------------------------------------------------------------
# the search over generators against the backtracking search it replaced


def backtrack_endomorphisms(alg):
    """The propagating backtracking search over gen_ops, without its budget.

    Constants are fixed; each node gives the smallest unassigned element an
    image and propagates phi(f(args)) = f(phi(args)) over every assigned
    argument tuple, so the assigned part is always a homomorphism on a
    subalgebra.
    """
    n = alg.size
    fixed = sorted({op.table[0] for op in alg.gen_ops if op.is_constant()})
    ops = [op for op in alg.gen_ops if not op.is_constant()]
    phi = [-1] * n
    for a in fixed:
        phi[a] = a
    out = []

    def search(dom):
        if -1 not in phi:
            out.append(tuple(phi))
            return
        free = phi.index(-1)
        for img in range(n):
            phi[free] = img
            added = propagate(ops, phi, dom, [free])
            if added is not None:
                search(dom + added)
                for x in added:
                    phi[x] = -1

    root = propagate(ops, phi, [], fixed)
    if root is not None:
        search(root)
    return sorted(out)


def propagate(ops, phi, old, new):
    """Extend the partial map phi by phi(f(args)) = f(phi(args)).

    Tuples over old are already consistent; new holds the elements just
    assigned.  Returns every element assigned (new included), or None after
    unassigning them when some tuple forces two images.
    """
    added = list(new)
    old = list(old)
    while new:
        found = []
        for op in ops:
            for args in cat._tuples_touching(old, new, op.arity):
                v = op(*args)
                w = op(*[phi[a] for a in args])
                if phi[v] < 0:
                    phi[v] = w
                    found.append(v)
                elif phi[v] != w:
                    for x in added + found:
                        phi[x] = -1
                    return None
        old += new
        added += found
        new = found
    return added


# every instance of the seed-0 catalog benchmark workload (perfbench)
SEED0_CATALOG_INSTANCES = [
    ("linear", {"q": 2, "dim": 1, "a0": [[1]]}),
    ("linear", {"q": 2, "dim": 2, "a0": [[0, 1]]}),
    ("linear", {"q": 3, "dim": 1, "a0": [[1]]}),
    ("linear", {"q": 3, "dim": 1, "a0": [[2]]}),
    ("linear", {"q": 3, "dim": 2, "a0": [[1, 0]]}),
    ("affine", {"q": 2, "dim": 1, "a0": [[1]]}),
    ("affine", {"q": 2, "dim": 2, "a0": [[0, 1]]}),
    ("affine", {"q": 3, "dim": 1, "a0": [[1]]}),
    ("affine", {"q": 3, "dim": 2, "a0": [[2, 1]]}),
    ("affine", {"q": 5, "dim": 1, "a0": [[1]]}),
    ("group_action", {"size": 3, "generators": [[1, 2, 0]], "constants": [1]}),
    ("group_action", {"size": 4, "generators": [[0, 2, 3, 1]], "constants": [0]}),
    ("group_action", {"size": 4, "generators": [[2, 3, 0, 1]], "constants": [3]}),
    ("group_action", {"size": 5, "generators": [[4, 2, 1, 3, 0]], "constants": [3]}),
    ("group_action", {"size": 6, "generators": [[5, 2, 1, 4, 3, 0]], "constants": [0]}),
    ("group_action", {"size": 6, "generators": [[4, 0, 5, 2, 1, 3]], "constants": [2]}),
    ("rank0", {"size": 2}),
    ("rank0", {"size": 4}),
    ("rank0", {"size": 6}),
    ("q_homog_field", {"q": 2}),
    ("q_homog_field", {"q": 3}),
    ("q_homog_field", {"q": 5}),
    ("exceptional", {}),
]

BACKTRACK_CASES = SEED0_CATALOG_INSTANCES + [
    # size-7 actions, cycle types (7) and (1,2,2,2): n^n = 823,543 maps
    ("group_action", {"size": 7, "generators": [[1, 2, 3, 4, 5, 6, 0]],
                      "constants": [0]}),
    ("group_action", {"size": 7, "generators": [[0, 2, 1, 4, 3, 6, 5]],
                      "constants": [0]}),
    ("affine", {"q": 3, "dim": 2, "a0": []}),  # 729 endomorphisms
    ("linear", {"q": 5, "dim": 2, "a0": [[1, 0]]}),
]


@pytest.mark.parametrize("kind,params", BACKTRACK_CASES)
def test_endomorphisms_match_backtracking_search(kind, params):
    alg = cat.make_instance(kind, **params)
    assert cat.endomorphisms(alg) == backtrack_endomorphisms(alg)


# ---------------------------------------------------------------------------
# the byte-table kernel against the entry-by-entry loops it replaced


def loop_compose(f, gs, total):
    out = bytearray(total)
    for t in range(total):
        idx = 0
        for g in gs:
            idx = idx * f.size + g[t]
        out[t] = f.table[idx]
    return bytes(out)


@st.composite
def compositions(draw):
    k = draw(st.integers(1, 4))
    top = max(n for n in range(1, 26) if n**k <= 25**3)
    # drawn from either end, so both lane widths of _compose come up often
    n = draw(st.integers(1, top) | st.integers(1, top).map(lambda i: top + 1 - i))
    # a seeded table: up to 15,625 drawn entries would overrun the example
    rnd = random.Random(draw(st.integers(0, 2**32)))
    f = cat.Op("f", k, n, bytes(rnd.randrange(n) for _ in range(n**k)))
    total = draw(st.integers(1, 800))
    gs = [bytes(b % n for b in draw(st.binary(min_size=total, max_size=total)))
          for _ in range(k)]
    return f, gs


def lane_edge(n, k, total=None):
    """f of arity k on n elements with a fixed pseudo-random table, applied
    to the full projections, or to total-entry pseudo-random arguments."""
    rnd = random.Random(n * 100 + k)
    f = cat.Op("f", k, n, bytes(rnd.randrange(n) for _ in range(n**k)))
    if total is None:
        return f, cat._projections(n, k)
    return f, [bytes(rnd.randrange(n) for _ in range(total)) for _ in range(k)]


@settings(max_examples=200, deadline=None)
@given(compositions())
@example(lane_edge(16, 2))          # 256 entries: the last byte-lane table
@example(lane_edge(4, 4))
@example(lane_edge(17, 2))          # 289 entries: the first 16-bit one
@example(lane_edge(9, 3, 729))
@example(lane_edge(25, 3))          # 15,625 entries, every index once
@example(lane_edge(1, 3, 5))
def test_compose_matches_entry_loop(case):
    f, gs = case
    assert cat._compose(f, gs) == loop_compose(f, gs, len(gs[0]))


def test_projections_are_coordinates():
    for n, m in itertools.product((1, 2, 3, 5), (1, 2, 3)):
        tuples = list(itertools.product(range(n), repeat=m))
        assert cat._projections(n, m) == [bytes(t[i] for t in tuples)
                                          for i in range(m)]


def loop_violations(alg, witness):
    """The nested-loop distributivity scan: first failing tuple per (a, op)."""
    out = []
    for a in cat.unary_clone(alg).t_ops:
        for op in witness.ops:
            if op.arity < 2:
                continue
            for args in itertools.product(range(alg.size), repeat=op.arity):
                lhs = a[op(*args)]
                rhs = op(*(a[x] for x in args))
                if lhs != rhs:
                    out.append({"a": list(a), "op": op.name, "args": list(args),
                                "lhs": lhs, "rhs": rhs})
                    break
    return tuple(out)


def oracle_check_witness(alg, witness):
    """The witness check on every basic op: W must generate each basic op
    outside W and the projections, the alien W ops are generated from
    ``alg.ops``, and every W op of arity >= 2 is scanned for every a in T."""
    n = alg.size
    projs = {m: cat._projections(n, m) for m in (1, 2, 3)}
    proj = {(m, t) for m, ts in projs.items() for t in ts}
    wtabs = {(op.arity, op.table) for op in witness.ops}
    btabs = {(op.arity, op.table) for op in alg.ops}
    goal = btabs - wtabs - proj
    ungenerated = goal - (cat.generated_covers(alg, witness.ops, goal) if goal else set())
    missing = tuple(sorted(op.name for op in alg.ops
                           if (op.arity, op.table) in ungenerated))
    alien = wtabs - btabs - proj
    outside = alien - (cat.generated_covers(alg, alg.ops, alien) if alien else set())
    non_clone = tuple(sorted(op.name for op in witness.ops
                             if (op.arity, op.table) in outside))
    violations = []
    for a in cat.unary_clone(alg).t_ops:
        at = a.ljust(256, b"\0")
        for op in witness.ops:
            if op.arity < 2:
                continue
            lhs = op.table.translate(at)
            rhs = cat._compose(op, [p.translate(at) for p in projs[op.arity]])
            if lhs != rhs:
                t = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                violations.append({"a": list(a), "op": op.name,
                                   "args": [p[t] for p in projs[op.arity]],
                                   "lhs": lhs[t], "rhs": rhs[t]})
    return cat.WitnessReport(not missing, missing, non_clone, tuple(violations))


WITNESS_SCAN_CASES = list(cat.DEFAULT_INSTANCES) + [
    ("semilattice", {}),
    ("linear", {"q": 3, "dim": 2, "a0": [[1, 0]]}),
    ("affine", {"q": 3, "dim": 2}),
]


@pytest.mark.parametrize("kind,params", WITNESS_SCAN_CASES)
def test_whole_table_scan_matches_nested_loop(kind, params):
    alg = cat.make_instance(kind, **params)
    variants = ("standard", "plus") if kind == "linear" else ("standard",)
    for variant in variants:
        wit = cat.witness_set(alg, variant)
        report = cat.check_witness(alg, wit)
        assert report.violations == loop_violations(alg, wit)
        assert report == oracle_check_witness(alg, wit)


# size 3 at most: the unary clone of a size-4 ternary algebra can hold all
# 256 self-maps, and closing it takes tens of seconds
@settings(max_examples=60, deadline=None)
@given(random_algebras(max_size=3, max_arity=3))
def test_whole_table_scan_matches_nested_loop_on_generated_algebras(alg):
    wit = cat.WitnessSet("all", alg.ops)
    assert cat.check_witness(alg, wit).violations == loop_violations(alg, wit)


# ---------------------------------------------------------------------------
# the witness check decided on gen_ops against the one decided on every op


def _algebra(gen_ops, derived=()):
    """The algebra generated by gen_ops whose basic ops are gen_ops, then
    derived."""
    ops = gen_ops + derived
    return cat.FiniteAlgebra("random", gen_ops[0].size, gen_ops, lambda: ops)


@st.composite
def witness_cases(draw):
    """An algebra from ``random_algebras`` with up to two more basic ops,
    each a composition of its ops (so gen_ops still generate every basic
    op), and a witness: some of its ops in any order, plus at most one
    alien table at any place."""
    alg = draw(random_algebras(max_size=3, max_arity=3))
    n = alg.size
    derived = []
    for k in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(alg.gen_ops))
        m = draw(st.integers(1, 3))
        pool = cat._projections(n, m) + [op.table for op in alg.gen_ops if op.arity == m]
        args = [draw(st.sampled_from(pool)) for _ in range(f.arity)]
        derived.append(cat.Op(f"d{k}", m, n, cat._compose(f, args)))
    alg = _algebra(alg.gen_ops, tuple(derived))
    order = draw(st.permutations(range(len(alg.ops))))
    wops = [alg.ops[i] for i in order[:draw(st.integers(0, len(order)))]]
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        table = draw(st.binary(min_size=n**m, max_size=n**m))
        wops.insert(draw(st.integers(0, len(wops))),
                    cat.Op("alien", m, n, bytes(b % n for b in table)))
    return alg, cat.WitnessSet("w", tuple(wops))


CYCLE = cat.Op("g", 1, 3, bytes((1, 2, 0)))
MIN = cat.Op("min", 2, 3, bytes(map(min, itertools.product(range(3), repeat=2))))
MIN3 = cat.Op("min3", 3, 3, bytes(map(min, itertools.product(range(3), repeat=3))))


# lower caps keep a drawn algebra with a large ternary clone to a fraction
# of a second; a report the oracle cannot finish under them is not compared
@settings(max_examples=200, deadline=None)
@given(witness_cases())
# W misses a gen op, and a derived op with it: only the full goal names both
@example((_algebra((MIN,), (MIN3,)), cat.WitnessSet("w", ())))
# a W op outside the clone, violated by a T op that preserves every gen op
@example((_algebra((CYCLE,)), cat.WitnessSet("w", (MIN,))))
# a T op (the cycle) that fails a gen op (min), so every W op is scanned
@example((_algebra((CYCLE, MIN)), cat.WitnessSet("w", (MIN, CYCLE))))
def test_witness_report_matches_the_check_on_every_op(case):
    alg, wit = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, "GEN_STEP_CAP", 20_000)
        mp.setattr(cat, "GEN_TABLE_CAP", 1024)
        try:
            expected = oracle_check_witness(alg, wit)
        except cat.BudgetExhausted:
            expected = None
        try:
            got = cat.check_witness(alg, wit)
        except cat.BudgetExhausted:
            # the gen_ops goal is a subset of the full one, so without an
            # alien op no cap trips earlier than it does on every op
            basic = {(op.arity, op.table) for op in alg.ops}
            assert expected is None or any(
                (op.arity, op.table) not in basic and op.table not in
                cat._projections(alg.size, op.arity) for op in wit.ops)
            return
    assert expected is None or got == expected


def digit_tables(q, dim):
    """F_q^dim's index of each vector, with add[u][v], the index of u + v,
    and scal[l][v], that of l * v.  It shares no code with the catalog: the
    vector of index i is written out here digit by digit, the first digit
    the most significant."""
    vecs = [tuple((i // q**p) % q for p in reversed(range(dim))) for i in range(q**dim)]
    index = {v: i for i, v in enumerate(vecs)}
    add = [[index[tuple((x + y) % q for x, y in zip(u, v))] for v in vecs]
           for u in vecs]
    scal = [[index[tuple((lam * x) % q for x in v)] for v in vecs] for lam in range(q)]
    return index, add, scal


@pytest.mark.parametrize("q", cat.FIELD_ORDERS)
@pytest.mark.parametrize("dim", [1, 2])
def test_field_tables_translate_and_scale(q, dim):
    _, add, scal = digit_tables(q, dim)
    assert cat._field_tables(q, dim) == ([bytes(row).ljust(256, b"\0") for row in add],
                                         [bytes(row) for row in scal])


def loop_field_ops(q, dim, a0, affine_only, with_const):
    """The row-by-row builder: every entry summed through add/scal lookups
    of ``digit_tables``; the shifts are A0, the span of the vectors a0,
    summed one spanning vector at a time."""
    size = q**dim
    index, add, scal = digit_tables(q, dim)
    shifts = {0}
    for w in a0:
        shifts = {add[s][scal[lam][index[tuple(w)]]] for s in shifts for lam in range(q)}
    ops = []
    for arity in (1, 2, 3):
        for lam in itertools.product(range(q), repeat=arity):
            if affine_only and sum(lam) % q != 1:
                continue
            for a in (sorted(shifts) if with_const else [0]):
                table = bytearray()
                for args in itertools.product(range(size), repeat=arity):
                    acc = a if with_const else 0
                    for l, x in zip(lam, args):
                        acc = add[acc][scal[l][x]]
                    table.append(acc)
                tag = ",".join(map(str, lam))
                name = f"f({tag})" + (f"+{a}" if with_const else "")
                ops.append(cat.Op(name, arity, size, bytes(table)))
    return ops


@pytest.mark.parametrize("kind,q,dim,a0", FIELD_OP_CASES)
def test_field_ops_match_row_by_row_builder(kind, q, dim, a0):
    if kind == "q_homog_field":
        args = (q, 1, [], True, False)
    else:
        args = (q, dim, a0, kind == "affine", True)
    alg = cat.make_instance(kind, **field_params(kind, q, dim, a0))
    assert list(alg.ops) == loop_field_ops(*args)


NINE = {"q": 3, "dim": 2, "a0": [[1, 0]]}
WITNESS = ["catalog", "--kind", "linear", "--params", json.dumps(NINE), "--check", "witness"]


def _witness_check(capsys, *variant) -> tuple[int, dict]:
    """Exit status and the one check of a witness report on NINE."""
    status = cli.run(WITNESS + list(variant))
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    return status, check


def _pin_cap(capsys, cap: str, counter: str, smallest: int):
    """The standard witness on NINE finishes at ``smallest`` and, one
    below, ends inconclusive naming the counter and its cap, exit 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, cap, smallest)
        status, check = _witness_check(capsys)
        assert (status, check["outcome"], check["details"]["generates"]) == (
            0, "pass", True)
        mp.setattr(cat, cap, smallest - 1)
        status, check = _witness_check(capsys)
    assert (status, check["outcome"]) == (1, "inconclusive")
    assert check["details"] == {"instance": "linear(size=9)", "witness": "maltsev+unary",
                                "exhausted": counter, "cap": smallest - 1}


def test_generation_step_budget(capsys):
    """38 steps is the smallest budget the standard witness finishes in: its
    one gen op outside W, x+y, is generated from the Maltsev op and the
    unary ops (the full goal takes 416).  One step fewer runs out partway:
    the check is inconclusive, exit 1, not a usage error."""
    _pin_cap(capsys, "GEN_STEP_CAP", "generation_steps", 38)


def test_generation_table_cap(capsys):
    """22 tables is the smallest cap the standard witness finishes under (the
    full goal takes 81); at 21 the check ends inconclusive, exit 1."""
    _pin_cap(capsys, "GEN_TABLE_CAP", "generated_tables", 22)


def test_plus_witness_takes_no_generation_step(capsys):
    """plus+unary holds every gen op of a linear instance, so it generates
    every basic op without composing a table: no cap can stop it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, "GEN_STEP_CAP", 0)
        mp.setattr(cat, "GEN_TABLE_CAP", 0)
        status, check = _witness_check(capsys, "--variant", "plus")
    assert (status, check["outcome"], check["details"]["generates"]) == (
        0, "finding", True)


def _pin_fallback_cap(cap: str, counter: str, smallest: int):
    """W = the unary ops of NINE holds every gen op but x+y, which it does
    not generate, so the full goal runs to name the 72 missing ops.  The
    check finishes at ``smallest`` and raises BudgetExhausted one below, in
    the full goal: the gen_ops goal alone still finishes there."""
    alg = cat.make_instance("linear", **NINE)
    wit = cat.WitnessSet("unary", tuple(op for op in alg.ops if op.arity == 1))
    wtabs = {(op.arity, op.table) for op in wit.ops}
    gen_goal = {(op.arity, op.table) for op in alg.gen_ops} - wtabs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, cap, smallest)
        report = cat.check_witness(alg, wit)
        assert (report.generates, len(report.missing)) == (False, 72)
        mp.setattr(cat, cap, smallest - 1)
        assert cat.generated_covers(alg, wit.ops, gen_goal) == set()
        with pytest.raises(cat.BudgetExhausted) as exc:
            cat.check_witness(alg, wit)
    assert (exc.value.counter, exc.value.cap) == (counter, smallest - 1)


def test_fallback_generation_step_budget():
    """324 steps is the smallest budget the full goal finishes in."""
    _pin_fallback_cap("GEN_STEP_CAP", "generation_steps", 324)


def test_fallback_generation_table_cap():
    """21 tables is the smallest cap the full goal finishes under."""
    _pin_fallback_cap("GEN_TABLE_CAP", "generated_tables", 21)


def test_fixpoint_order_is_independent_of_the_hash_seed():
    """Generation may stop partway through a round, so the order in which
    the fixpoint yields tables, and the derivation it yields with each,
    must not depend on how bytes hash."""
    code = ("from indalg import catalog as cat\n"
            "a = cat.make_instance('linear', q=3, dim=2, a0=[[1, 0]])\n"
            "start = [bytes(range(a.size))]\n"
            "print([(t.hex(), op and op.name, [g.hex() for g in args])\n"
            "       for t, op, args in cat._fixpoint(a.gen_ops, start, cat._compose)])")
    src = str(Path(cat.__file__).parents[1])
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outs) == 1
