import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from indalg.orders import linalg as la, randints
from indalg.orders import matrix as mx
from indalg.orders import suite as su
from indalg.orders.matrix import NoGroupInverse

from linalg_oracles import (col_space_leq, inverse, lattice_leq, mat_q, rank_q,
                            straight_by_conjugation)


def q(rows):
    """Rows of ints, Fractions and exact strings as the backend's (rows, d)."""
    return la.split(mat_q(rows))


def z(rows):
    """Integer rows as the backend's (rows, 1)."""
    return tuple(map(tuple, rows)), 1


def fr(m):
    """The Fraction matrix of (rows, d)."""
    return la.join(*m)


# --- Green's preorders, dual routes ----------------------------------------


def test_r_order_is_kernel_containment():
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randint(1, 3)
        a = mx.rand_rational_matrix(rng, n)
        b = mx.rand_rational_matrix(rng, n)
        via_kernel = mx.greens_leq("R", a, b)
        assert via_kernel == (mx.divides_left(fr(a), fr(b)) is not None)


def test_l_order_is_image_containment():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 3)
        a = mx.rand_rational_matrix(rng, n)
        b = mx.rand_rational_matrix(rng, n)
        via_cols = mx.greens_leq("L", a, b)
        assert via_cols == (la.solve_right(fr(b), fr(a)) is not None)


def test_divisor_witnesses_recompose():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = fr(mx.rand_rational_matrix(rng, n))
        b = fr(mx.rand_rational_matrix(rng, n))
        g = mx.divides_left(a, b)
        if g is not None:
            assert la.matmul(g, b) == a
        g = la.solve_right(b, a)
        if g is not None:
            assert la.matmul(b, g) == a


def test_starred_orders_extend_unstarred_on_lifts():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 3)
        a = mx.rand_int_matrix(rng, n)
        b = mx.rand_int_matrix(rng, n)
        for side, starred in (("R", "Rstar"), ("L", "Lstar")):
            plain = mx.greens_leq(side, a, b)
            star = mx.greens_leq(starred, a, b)
            assert star == plain, (side, a, b)


def test_starred_orders_reject_rational_input():
    a = q([[Fraction(1, 2)]])
    one = z([[1]])
    with pytest.raises(ValueError, match="^non-integer entry 1/2$"):
        mx.greens_leq("Rstar", a, one)
    with pytest.raises(ValueError, match="^non-integer entry -3/4$"):
        mx.greens_leq("Lstar", one, q([[1, "-6/8"], [2, "1/2"]]))
    with pytest.raises(ValueError):
        mx.greens_leq("bogus", a, a)
    # an integer matrix over a denominator that divides every entry is integer
    assert mx.greens_leq("Rstar", (((2, 4), (6, 8)), 2), z([[1, 0], [0, 1]]))


def pc_closure_cols(a):
    """Canonical basis of the pure closure of the column lattice of a."""
    return la.saturation(la.transpose(a), len(a))


def pc_closure_lstar(a, b) -> bool:
    """Lstar as computed before it became one integer kernel: containment
    of the saturated column lattices, compared by canonical HNF."""
    return lattice_leq(pc_closure_cols(a), pc_closure_cols(b))


def test_pc_closure_cols_saturates():
    a = ((2, 0), (0, 4))
    assert pc_closure_cols(a) == ((1, 0), (0, 1))


small_ints = st.integers(-4, 4)
nonzero_ints = st.integers(-5, 5).filter(bool)


@st.composite
def lstar_pairs(draw):
    """Square integer pairs of size 1-4: random entries, thin products
    times a scalar (rank-deficient, column lattice not saturated), zero,
    full rank (upper triangular, nonzero diagonal), and a = b g, with its
    content divided out half the time."""

    def square(kind, n):
        if kind == "random":
            return [draw(st.lists(small_ints, min_size=n, max_size=n)) for _ in range(n)]
        if kind == "thin times scalar":
            k = draw(st.integers(1, max(1, n - 1)))
            left = [draw(st.lists(small_ints, min_size=k, max_size=k)) for _ in range(n)]
            right = [draw(st.lists(small_ints, min_size=n, max_size=n)) for _ in range(k)]
            return la.scale_int(draw(st.integers(2, 6)), la.matmul_int(left, right))
        if kind == "zero":
            return la.zeros(n, n)
        return [[draw(nonzero_ints) if i == j else draw(small_ints) if j > i else 0
                 for j in range(n)] for i in range(n)]

    kinds = ("random", "thin times scalar", "zero", "full rank")
    n = draw(st.integers(1, 4))
    b = square(draw(st.sampled_from(kinds)), n)
    a = square(draw(st.sampled_from(kinds)), n)
    if draw(st.booleans()):  # a = b g, inside b's column span
        a = la.matmul_int(b, a)
        content = math.gcd(*(x for row in a for x in row))
        if content > 1 and draw(st.booleans()):  # often off b's column lattice
            a = [[x // content for x in row] for row in a]
    return tuple(map(tuple, a)), tuple(map(tuple, b))


PIN_B = ((3, 0, 0), (0, 0, 0), (0, 3, 0))
ZERO_2 = la.zeros(2, 2)


@settings(max_examples=400)
@given(lstar_pairs())
# the two Lstar golden pins' pairs, b = 0, and a full-rank b (empty kernel)
@example((((2, 4, 0), (0, 0, 0), (2, 4, 0)), PIN_B))
@example((((2, 0, 0), (2, 0, 0), (0, 0, 0)), PIN_B))
@example((((1, 2), (3, 4)), ZERO_2))
@example((ZERO_2, ZERO_2))
@example((((1, 2), (3, 4)), ((2, 1), (0, 3))))
def test_lstar_is_one_kernel_and_matches_the_pure_closure_route(pair):
    a, b = pair
    got = mx.greens_leq("Lstar", (a, 1), (b, 1))
    assert got == pc_closure_lstar(a, b)
    assert got == mx.greens_leq("Rstar", (la.transpose(a), 1), (la.transpose(b), 1))


rational_or_integer = st.sampled_from((
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
))


@st.composite
def l_pairs(draw):
    """Square pairs of size 1-4, all rational or all integer: random
    entries, thin products (rank-deficient), zero and full rank (upper
    triangular, nonzero diagonal); half the time a = b g, inside b's
    column space."""
    entries = draw(rational_or_integer)

    def rows(r, c):
        return [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]

    def square(kind, n):
        if kind == "random":
            return mat_q(rows(n, n))
        if kind == "thin":
            k = draw(st.integers(1, max(1, n - 1)))
            return la.matmul(mat_q(rows(n, k)), mat_q(rows(k, n)))
        if kind == "zero":
            return mat_q(la.zeros(n, n))
        return mat_q([[draw(entries.filter(bool)) if i == j else draw(entries) if j > i
                       else 0 for j in range(n)] for i in range(n)])

    kinds = ("random", "thin", "zero", "full rank")
    n = draw(st.integers(1, 4))
    b = square(draw(st.sampled_from(kinds)), n)
    a = square(draw(st.sampled_from(kinds)), n)
    if draw(st.booleans()):
        a = la.matmul(b, a)
    return a, b


@settings(max_examples=400)
@given(l_pairs())
# the rational rank-deficient golden pair, where a <=_L b fails
@example((mat_q([["2/3", "1/14", "7/10"], ["4/3", "1/7", "7/5"], [0, 0, 0]]),
          mat_q([["2/3", 0, "1/5"], [0, "1/7", 1], ["2/3", "1/7", "6/5"]])))
@example((mat_q([[1, 2], [3, 4]]), mat_q(la.zeros(2, 2))))
@example((mat_q(la.zeros(2, 2)), mat_q(la.zeros(2, 2))))
def test_l_is_one_kernel_and_matches_the_rank_and_solvability_routes(pair):
    a, b = pair
    got = mx.greens_leq("L", la.split(a), la.split(b))
    assert got == col_space_leq(a, b)
    assert got == su.matrix_route("L", la.split(a), la.split(b))
    assert got == mx.greens_leq("R", la.split(la.transpose(a)), la.split(la.transpose(b)))


# --- group inverses ----------------------------------------------------------


def test_group_inverse_identity_and_zero():
    assert mx.group_inverse(la.identity(3)) == la.identity(3)
    assert mx.group_inverse(la.zeros(2, 2)) == la.zeros(2, 2)


def test_group_inverse_axioms_on_random_matrices():
    rng = random.Random(14)
    hits = 0
    while hits < 80:
        n = rng.randint(1, 4)
        s = fr(mx.rand_rational_matrix(rng, n))
        if rank_q(s) != rank_q(la.matmul(s, s)):
            with pytest.raises(NoGroupInverse):
                mx.group_inverse(s)
            continue
        t = mx.group_inverse(s)
        assert la.matmul(la.matmul(s, t), s) == s
        assert la.matmul(la.matmul(t, s), t) == t
        assert la.matmul(s, t) == la.matmul(t, s)
        hits += 1


@st.composite
def square_matrices(draw):
    """Small rational square matrices: invertible and not, rank-deficient
    products of thin factors, and nilpotent ones."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-4, 4)

    def ints_mat(rows, cols):
        return [[draw(ints) for _ in range(cols)] for _ in range(rows)]

    kind = draw(st.sampled_from(["full", "rational", "product", "nilpotent"]))
    if kind == "full":
        return mat_q(ints_mat(n, n))
    if kind == "rational":
        dens = st.integers(1, 5)
        return mat_q([[Fraction(draw(ints), draw(dens)) for _ in range(n)]
                      for _ in range(n)])
    if kind == "product":  # rank at most k
        k = draw(st.integers(1, n))
        return la.matmul(ints_mat(n, k), ints_mat(k, n))
    # a strictly upper triangular matrix conjugated by a unit lower
    # triangular one
    u = [[draw(ints) if j > i else 0 for j in range(n)] for i in range(n)]
    p = mat_q([[draw(ints) if j < i else int(i == j) for j in range(n)] for i in range(n)])
    return la.matmul(la.matmul(p, u), inverse(p))


@given(square_matrices())
@example(mat_q([[0, 1], [0, 0]]))
@example(mat_q([[1, 1], [1, 1]]))
@example(mat_q([[2, 4], [-1, -2]]))
def test_group_inverse_axioms_property(s):
    if rank_q(s) != rank_q(la.matmul(s, s)):
        with pytest.raises(NoGroupInverse):
            mx.group_inverse(s)
        return
    t = mx.group_inverse(s)
    assert la.matmul(la.matmul(s, t), s) == s
    assert la.matmul(la.matmul(t, s), t) == t
    assert la.matmul(s, t) == la.matmul(t, s)


def test_group_inverse_invertible_matches_inverse():
    rng = random.Random(15)
    found = 0
    while found < 30:
        n = rng.randint(1, 3)
        s = fr(mx.rand_rational_matrix(rng, n))
        if rank_q(s) < n:
            continue
        assert mx.group_inverse(s) == inverse(s)
        found += 1


def test_group_inverse_nilpotent_rejected():
    nil = mat_q([[0, 1], [0, 0]])
    assert rank_q(nil) != rank_q(la.matmul(nil, nil))
    with pytest.raises(NoGroupInverse):
        mx.group_inverse(nil)


def test_group_inverse_projector_is_self():
    p = mat_q([[1, 0], [0, 0]])
    assert mx.group_inverse(p) == p


# --- integer/straight decompositions ----------------------------------------


def _check_decomposition(alpha, dec, mode):
    a, b = dec
    assert a[1] == 1 and b[1] == 1  # integer parts
    assert mx.verify_decomposition(alpha, dec, mode)
    if mode in ("left", "straight"):
        assert la.matmul(mx.group_inverse(fr(a)), fr(b)) == fr(alpha)
    else:
        assert la.matmul(fr(a), mx.group_inverse(fr(b))) == fr(alpha)


def test_left_decompose_diagonal_example():
    alpha = q([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    dec = mx.decompose(alpha, "left")
    assert dec == ((((6, 0), (0, 6)), 1), (((3, 0), (0, 2)), 1))
    _check_decomposition(alpha, dec, "left")


def test_right_decompose_diagonal_example():
    alpha = q([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    dec = mx.decompose(alpha, "right")
    assert dec == ((((3, 0), (0, 2)), 1), (((6, 0), (0, 6)), 1))
    _check_decomposition(alpha, dec, "right")


def test_straight_decompose_rank_one_projector():
    alpha = q([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    dec = mx.decompose(alpha, "straight")
    assert tuple(part[0] for part in dec) == mx.straight_left_decompose(alpha)
    _check_decomposition(alpha, dec, "straight")
    certs = mx.straight_certificates(alpha, dec)
    assert certs == {
        "projector_fixes_alpha": True,
        "rank_match": True,
        "recompose": True,
    }


def test_decompositions_random_round_trip():
    rng = random.Random(16)
    for k in range(300):
        n = 1 + k % 4
        alpha = mx.rand_rational_matrix(rng, n)
        _check_decomposition(alpha, mx.decompose(alpha, "left"), "left")
        _check_decomposition(alpha, mx.decompose(alpha, "right"), "right")
        dec = mx.decompose(alpha, "straight")
        _check_decomposition(alpha, dec, "straight")
        certs = mx.straight_certificates(alpha, dec)
        assert all(certs.values()), (alpha, certs)


@st.composite
def ranked_alphas(draw):
    """Square matrices of size 1-5, all rational or all integer, as a
    product of n x r and r x n factors for r in 0..n: rank at most r."""
    entries = draw(rational_or_integer)
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    if r == 0:
        return mat_q(la.zeros(n, n))
    left = [draw(st.lists(entries, min_size=r, max_size=r)) for _ in range(n)]
    right = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(r)]
    return la.matmul(mat_q(left), mat_q(right))


@settings(max_examples=300)
@given(ranked_alphas())
@example(mat_q(la.zeros(2, 2)))
@example(mat_q([[2, 4, -2], [1, 2, -1], [0, 0, 0]]))
@example(mat_q([[1, 1], [0, 0]]))
def test_straight_projector_read_off_one_echelon_matches_conjugation(alpha):
    a, b = mx.straight_left_decompose(la.split(alpha))
    assert (a, b) == straight_by_conjugation(la.split(alpha))
    e = la.matmul(mx.group_inverse(a), a)  # a = m E, so a# a = E
    assert la.matmul(e, e) == e
    assert la.matmul(e, alpha) == alpha
    assert rank_q(e) == rank_q(alpha)


def test_straight_decompose_scaling_structure():
    # a is m x projector onto the column space of alpha, b is m x alpha
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        alpha = mx.rand_rational_matrix(rng, n)
        a, b = mx.straight_left_decompose(alpha)
        r = la.rank(alpha[0])
        assert la.rank(a) == la.rank(la.matmul_int(a, a))
        assert la.rank(a) == r or r == 0
        assert col_space_leq(b, a) and col_space_leq(a, b) or r == 0


def test_verify_decomposition_rejects_wrong_pair():
    alpha = q([[Fraction(1, 2)]])
    bad = (z([[3]]), z([[2]]))
    assert not mx.verify_decomposition(alpha, bad, "left")
    # the right values, but a part that is not integer
    assert mx.verify_decomposition(alpha, (z([[2]]), z([[1]])), "left")
    assert not mx.verify_decomposition(alpha, (q([[1]]), q([["1/2"]])), "left")


def test_decomposition_as_dict_strings():
    dec = (z([[2, 0], [0, 2]]), z([[1, 1], [0, 1]]))
    assert [mx.show(part) for part in dec] == [
        [["2", "0"], ["0", "2"]],
        [["1", "1"], ["0", "1"]],
    ]
    assert mx.show(q([[Fraction(-1, 2), 3]])) == [["-1/2", "3"]]
    assert mx.show((((-3, 0, 12),), 6)) == [["-1/2", "0", "2"]]


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=6),
       st.integers(1, 10**12))
@example([0, 4, -4, 6, 7], 4)
def test_show_writes_each_entry_as_str_fraction(row, d):
    assert mx.show(((tuple(row),), d)) == [[str(Fraction(x, d)) for x in row]]


# --- quotient fractions ------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: mx.decompose(q([[Fraction(1, 2), 0], [0, 1]]), "left"),
    lambda: mx.quot(4, (2, 6)),
])
def test_records_are_values_that_refuse_assignment(make):
    record, twin = make(), make()
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(TypeError):  # a decomposition is a plain pair
        record[0] = None
    for field in getattr(record, "_fields", ()):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_quot_elem_canonical():
    p = mx.quot(4, (2, 6))
    assert (p.t, p.v) == (2, (1, 3))
    assert mx.quot(3, (0, 0)) == mx.quot(7, (0, 0))
    with pytest.raises(ValueError):
        mx.quot(0, (1,))
    with pytest.raises(ValueError):
        mx.quot(-2, (1,))


def test_quotient_eq_cross_multiplication():
    p = mx.quot(2, (1, 3))
    q_ = mx.quot(4, (2, 6))
    assert mx.quotient_eq(p, q_)
    assert not mx.quotient_eq(p, mx.quot(2, (1, 4)))
    with pytest.raises(ValueError):  # zip must not truncate to a false "equal"
        mx.quotient_eq(p, mx.quot(2, (1, 3, 0)))
    rng = random.Random(18)
    for _ in range(200):
        t = rng.randint(1, 9)
        v = tuple(rng.randint(-5, 5) for _ in range(2))
        s = rng.randint(1, 5)
        assert mx.quotient_eq(mx.quot(t, v), mx.quot(t * s, tuple(s * x for x in v)))


def test_embed_and_act():
    e = mx.embed((3, -6))
    assert (e.t, e.v) == (1, (3, -6))  # t = 1 leaves nothing to cancel
    assert mx.quotient_eq(e, mx.quot(2, (6, -12)))


def test_rand_matrices_shapes():
    rng = random.Random(20)
    for n in (1, 2, 3, 4):
        rows, d = mx.rand_rational_matrix(rng, n)
        assert la.shape(rows) == (n, n) and d > 0
        assert la.lowest(rows, d) == (rows, d)
        rows, d = mx.rand_int_matrix(rng, n)
        assert la.shape(rows) == (n, n) and d == 1
        assert all(type(x) is int for row in rows for x in row)


# --- seeded samplers against their randint streams ----------------------------


def rand_rational_matrix_by_randint(rng, n):
    """``rand_rational_matrix`` as it drew before reading ``getrandbits``
    directly, kept as the oracle for its values and its stream."""
    nonzero = [d for d in range(-9, 10) if d != 0]
    return tuple(
        tuple(Fraction(rng.randint(-9, 9), rng.choice(nonzero)) for _ in range(n))
        for _ in range(n)
    )


def rand_int_matrix_by_randint(rng, n):
    """``rand_int_matrix`` as it drew before, kept as its oracle."""
    if n > 1 and rng.random() < 0.4:
        k = rng.randint(1, n - 1)
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        return la.matmul_int(a, b)
    return tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))


# widths 1, powers of two and their neighbours, where a wrong bit count or
# rejection test first reads the stream differently
bounds = st.tuples(st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 5, 8, 9, 18, 19, 64, 2**70)))


@given(st.integers(), st.lists(bounds, max_size=12))
def test_randints_reads_the_randint_stream(seed, spans):
    rng, oracle = random.Random(seed), random.Random(seed)
    spans = [(lo, lo + width - 1) for lo, width in spans]
    assert randints(rng, spans) == [oracle.randint(lo, hi) for lo, hi in spans]
    assert rng.random() == oracle.random()


def rand_rational_matrix_by_fractions(rng, n):
    """``rand_rational_matrix`` as it was before it returned (rows, d): the
    same draws through ``randints``, as Fractions.  Kept as the oracle that
    the integer rule returns their split and reads the same stream."""
    nonzero = [d for d in range(-9, 10) if d != 0]
    draws = iter(randints(rng, [(-9, 9), (0, 17)] * (n * n)))
    entries = [Fraction(p, nonzero[q]) for p, q in zip(draws, draws)]
    return tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))


@given(st.integers(), st.integers(1, 4))
def test_matrix_samplers_read_the_randint_stream(seed, n):
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert mx.rand_int_matrix(rng, n) == (rand_int_matrix_by_randint(oracle, n), 1)
        assert mx.rand_rational_matrix(rng, n) == la.split(
            rand_rational_matrix_by_randint(oracle, n))
    assert rng.random() == oracle.random()


@settings(max_examples=300)
@given(st.integers(), st.integers(1, 6))
@example(0, 1)
def test_rand_rational_matrix_is_the_split_of_the_fractions_it_drew(seed, n):
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert mx.rand_rational_matrix(rng, n) == la.split(
            rand_rational_matrix_by_fractions(oracle, n))
        assert rng.getstate() == oracle.getstate()
