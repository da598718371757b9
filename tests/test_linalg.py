import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from indalg.orders import linalg as la

from linalg_oracles import (col_space_leq, inverse, lattice_leq, mat_q, oracle_kernel,
                            oracle_solution, rank_q, rref_oracle)


def _rand_q(rng, r, c):
    return mat_q(
        [
            [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(c)]
            for _ in range(r)
        ]
    )


def _rand_z(rng, r, c, bound=6):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(c)) for _ in range(r))


def _rows(a):
    """The integer rows of a rational matrix, its denominator dropped."""
    return la.split(a)[0]


def test_rref_shape_and_pivots():
    a = mat_q([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = la.rref(a)
    assert pivots == (0, 1)
    assert rank_q(a) == 2
    # pivot columns are standard basis columns
    for k, p in enumerate(pivots):
        assert [row[p] for row in r] == [1 if i == k else 0 for i in range(len(r))]


def test_rref_idempotent_and_row_space_preserved():
    rng = random.Random(1)
    for _ in range(100):
        a = _rand_q(rng, rng.randint(1, 4), rng.randint(1, 4))
        r, _ = la.rref(a)
        r2, _ = la.rref(r)
        assert r == r2
        assert rank_q(a) == rank_q(r)


def test_nullspace_is_annihilated_and_spans():
    rng = random.Random(2)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = _rand_q(rng, rows, cols)
        basis = la.nullspace(_rows(a))
        assert len(basis) == cols - rank_q(a)
        for v in basis:
            assert all(row == (0,) for row in la.matmul(a, [(x,) for x in v]))
        if basis:
            assert la.rank(basis) == len(basis)


def test_solve_right():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = _rand_q(rng, n, rng.randint(1, 3))
        x_true = _rand_q(rng, la.shape(a)[1], 2)
        b = la.matmul(a, x_true)
        x = la.solve_right(a, b)
        assert x is not None
        assert la.matmul(a, x) == b
    # unsolvable case: second row of b is outside the image
    a = mat_q([[1, 0], [0, 0]])
    b = mat_q([[0, 0], [1, 0]])
    assert la.solve_right(a, b) is None


def test_solve_left():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 3)
        g = _rand_q(rng, 2, n)
        b = _rand_q(rng, n, 3)
        a = la.matmul(g, b)
        got = la.solve_left(b, a)  # X with X b = a
        assert got is not None
        assert la.matmul(got, b) == a
    # row space of the target escapes the row space of the base
    a = mat_q([[1, 0], [0, 0]])
    b = mat_q([[0, 1], [0, 0]])
    assert la.solve_left(a, b) is None


def test_col_space_leq():
    a = mat_q([[1], [1]])
    b = mat_q([[1, 0], [0, 1]])
    assert col_space_leq(a, b)
    assert not col_space_leq(b, a)
    assert col_space_leq(a, a)


def test_inverse_round_trip():
    rng = random.Random(5)
    found = 0
    while found < 40:
        n = rng.randint(1, 4)
        a = _rand_q(rng, n, n)
        if rank_q(a) < n:
            with pytest.raises(ValueError):
                inverse(a)
            continue
        inv = inverse(a)
        assert la.matmul(a, inv) == la.identity(n)
        assert la.matmul(inv, a) == la.identity(n)
        found += 1


def test_clear_denominators():
    a = mat_q([[Fraction(1, 2), Fraction(2, 3)], [1, 0]])
    cleared, m = la.split(a)
    assert m == 6
    assert cleared == tuple(tuple(m * x for x in row) for row in a)
    assert all(type(x) is int for row in cleared for x in row)
    assert la.join(cleared, m) == a


def test_hnf_rows_canonical():
    h = la.hnf_rows([[2, 4], [4, 2]])
    # positive pivots, entries above pivots reduced into [0, pivot)
    assert h == ((2, 4), (0, 6))
    # row order / duplicates / negations do not change the HNF
    assert la.hnf_rows([[4, 2], [2, 4], [-2, -4]]) == h
    assert la.hnf_rows([[0, 0]]) == ()
    assert la.hnf_rows([]) == ()


def test_hnf_rows_random_canonicality():
    rng = random.Random(6)
    for _ in range(80):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(rng.randint(1, 4))]
        h1 = la.hnf_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        sign_flipped = [[-x for x in r] if rng.random() < 0.5 else r for r in shuffled]
        assert la.hnf_rows(sign_flipped + rows) == h1
        for row in h1:
            assert lattice_leq([row], h1)
        for row in rows:
            assert lattice_leq([row], h1)


def test_in_row_lattice_strictness():
    h = la.hnf_rows([[2, 0], [0, 2]])
    assert lattice_leq([(4, -2)], h)
    assert not lattice_leq([(1, 0)], h)
    assert not lattice_leq([(2, 1)], h)


def test_lattice_leq():
    fine = [[1, 0], [0, 1]]
    coarse = [[2, 0], [0, 2]]
    assert lattice_leq(coarse, fine)
    assert not lattice_leq(fine, coarse)
    assert lattice_leq([], fine)
    assert lattice_leq([], [])
    assert not lattice_leq([[1, 0]], [])


def test_left_kernel_int():
    m = ((1, 2), (2, 4), (3, 6))
    k = la.left_kernel_int(m)
    # kernel vectors annihilate m, and the kernel has the right rank
    for v in k:
        assert all(
            sum(v[i] * m[i][j] for i in range(len(m))) == 0 for j in range(len(m[0]))
        )
    assert len(k) == 2
    assert k == la.hnf_rows(k)  # canonical form


def test_left_kernel_int_random_completeness():
    rng = random.Random(7)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _rand_z(rng, rows, cols)
        k = la.left_kernel_int(m)
        rational_nullity = rows - la.rank(m)
        assert len(k) == rational_nullity
        for v in k:
            assert all(
                sum(v[i] * m[i][j] for i in range(rows)) == 0 for j in range(cols)
            )


def test_right_kernel_int():
    m = ((2, 4),)
    k = la.right_kernel_int(m)
    assert k == ((2, -1),)
    assert all(sum(m[i][j] * v[j] for j in range(2)) == 0 for v in k for i in range(1))


def test_saturation_examples():
    assert la.saturation([(2, 0)], 2) == ((1, 0),)
    assert la.saturation([(2, 4)], 2) == ((1, 2),)
    assert la.saturation([], 2) == ()
    # full rank saturates to the identity lattice
    assert la.saturation([(2, 0), (0, 3)], 2) == ((1, 0), (0, 1))


def test_saturation_contains_originals_and_is_saturated():
    rng = random.Random(8)
    for _ in range(60):
        dim = rng.randint(1, 4)
        rows = [
            [rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(0, 3))
        ]
        s = la.saturation(rows, dim)
        for row in rows:
            assert lattice_leq([row], s)
        assert la.saturation(s, dim) == s
        if s:
            assert math.gcd(*s[0]) >= 1


def test_integer_matrix_iff_denominator_one_and_content():
    assert la.split(mat_q([[1, 2], [3, 4]])) == (((1, 2), (3, 4)), 1)
    assert la.split(mat_q([[Fraction(1, 2)]]))[1] == 2
    assert math.gcd(4, -6, 8) == 2
    assert math.gcd(0, 0) == 0


# --- property tests for the integer-lattice laws ------------------------------

int_rows = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=4
    )
)
nonempty_int_rows = int_rows.filter(bool)


def _det(m) -> int:
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _is_saturated(basis) -> bool:
    """A rank-r lattice is saturated iff its r x r minors have gcd 1."""
    if not basis:
        return True
    r, n = len(basis), len(basis[0])
    minors = (
        _det([[row[j] for j in cols] for row in basis])
        for cols in itertools.combinations(range(n), r)
    )
    return math.gcd(*minors) == 1


@settings(max_examples=200, deadline=None)
@given(int_rows)
def test_hnf_rows_idempotent(rows):
    h = la.hnf_rows(rows)
    assert la.hnf_rows(h) == h


@settings(max_examples=200, deadline=None)
@given(nonempty_int_rows, st.data())
def test_hnf_rows_invariant_under_unimodular_moves(rows, data):
    h = la.hnf_rows(rows)
    moved = data.draw(st.permutations(rows))
    flips = data.draw(st.lists(st.booleans(), min_size=len(moved), max_size=len(moved)))
    moved = [[-x for x in row] if f else list(row) for row, f in zip(moved, flips)]
    moved.append(list(data.draw(st.sampled_from(moved))))
    i = data.draw(st.integers(0, len(moved) - 1))
    j = data.draw(st.integers(0, len(moved) - 1).filter(lambda j: j != i))
    q = data.draw(st.integers(-5, 5))
    moved[i] = [x + q * y for x, y in zip(moved[i], moved[j])]
    assert la.hnf_rows(moved) == h


@settings(max_examples=200, deadline=None)
@given(int_rows)
def test_hnf_rows_shape_and_rank(rows):
    h = la.hnf_rows(rows)
    prev = -1
    for i, row in enumerate(h):
        p = next(c for c, x in enumerate(row) if x != 0)
        assert p > prev and row[p] > 0
        assert all(0 <= h[k][p] < row[p] for k in range(i))
        prev = p
    assert len(h) == la.rank(rows)


@settings(max_examples=200, deadline=None)
@given(nonempty_int_rows)
def test_left_kernel_int_annihilates_and_is_saturated(m):
    k = la.left_kernel_int(m)
    cols = len(m[0])
    for v in k:
        assert all(sum(v[i] * m[i][j] for i in range(len(m))) == 0 for j in range(cols))
    assert len(k) == len(m) - la.rank(m)
    assert _is_saturated(k)


@settings(max_examples=200, deadline=None)
@given(int_rows)
def test_saturation_idempotent_and_contains_input(rows):
    dim = len(rows[0]) if rows else 3
    s = la.saturation(rows, dim)
    assert la.saturation(s, dim) == s
    assert lattice_leq(rows, s)
    assert len(s) == la.rank(rows)
    assert _is_saturated(s)


@settings(max_examples=300, deadline=None)
@given(nonempty_int_rows, st.data())
def test_lattice_leq_agrees_with_rational_solve(rows, data):
    h = la.hnf_rows(rows)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    v = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]
    d = data.draw(st.sampled_from([1, 2, 3]))
    if all(x % d == 0 for x in v):
        v = [x // d for x in v]
    if data.draw(st.booleans()):
        v[data.draw(st.integers(0, len(v) - 1))] += data.draw(st.integers(-2, 2))
    if h:
        x = la.solve_left(h, [v])
        oracle = x is not None and all(c.denominator == 1 for c in x[0])
    else:
        oracle = not any(v)
    assert lattice_leq([v], h) == oracle


# --- the one-pass echelon, seen through hnf_rows and left_kernel_int ---------

# entries of 200 bits and more next to small ones, so the 2 x 2 Euclid steps
# meet coefficient growth
wide_ints = st.one_of(
    st.integers(-6, 6),
    st.integers(2**200, 2**264).flatmap(lambda x: st.sampled_from((x, -x))),
)


@st.composite
def wide_int_rows(draw):
    """1-5 integer rows of width 1-4 with wide entries: random, or a thin
    product of wide factors (rank-deficient, so kernels are wide too)."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [draw(st.lists(wide_ints, min_size=cols, max_size=cols)) for _ in range(rows)]
    k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    left = [draw(st.lists(wide_ints, min_size=k, max_size=k)) for _ in range(rows)]
    right = [draw(st.lists(wide_ints, min_size=cols, max_size=cols)) for _ in range(k)]
    return [list(row) for row in la.matmul_int(left, right)]


@settings(max_examples=300)
@given(wide_int_rows(), st.data())
def test_hnf_rows_unchanged_by_an_added_integer_combination(rows, data):
    coeffs = data.draw(st.lists(wide_ints, min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]
    at = data.draw(st.integers(0, len(rows)))
    assert la.hnf_rows(rows[:at] + [combo] + rows[at:]) == la.hnf_rows(rows)


@settings(max_examples=300)
@given(wide_int_rows())
def test_left_kernel_int_is_complete_on_wide_entries(m):
    k = la.left_kernel_int(m)
    cols = len(m[0])
    for v in k:
        assert all(sum(v[i] * m[i][j] for i in range(len(m))) == 0 for j in range(cols))
    # rank k - rank(m) and saturated: k spans every integer kernel vector
    assert len(k) == len(m) - la.rank(m)
    assert _is_saturated(k)
    assert la.hnf_rows(k) == k


@settings(max_examples=300)
@given(wide_int_rows())
# zero rows, alone and among others (the kernel takes in every zero row)
@example([[0, 0], [0, 0], [0, 0]])
@example([[0, 0, 0], [3, -6, 9], [0, 0, 0], [1, 2, 3]])
# full row rank: the kernel is empty
@example([[1, 0, 0], [0, 2, 0]])
@example([[2**200 + 1, 3], [5, -(2**201)]])
def test_left_kernel_gens_annihilate_and_generate_the_canonical_kernel(m):
    gens = la.left_kernel_gens(m)
    cols = len(m[0])
    for v in gens:
        assert all(sum(v[i] * m[i][j] for i in range(len(m))) == 0 for j in range(cols))
    # a basis of the whole integer kernel, which is saturated
    assert len(gens) == len(m) - la.rank(m)
    assert _is_saturated(gens)
    assert la.hnf_rows(gens) == la.left_kernel_int(m)


# --- property tests for the rational kernel -----------------------------------


def _product(a, b):
    """a @ b with plain Fraction sums, independent of ``la.matmul``."""
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


rational_entries = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


def _rational_rows(rows: int, cols: int):
    return st.lists(st.lists(rational_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=9):
    """Rational matrices up to 5 x 9, with ints and Fractions mixed, biased
    towards zero rows, duplicated rows and rank-deficient products."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.sampled_from([1, draw(st.integers(1, max_cols))]))
    kind = draw(st.sampled_from(["random", "zero row", "duplicate row", "product"]))
    if kind == "product":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        return _product(draw(_rational_rows(rows, k)), draw(_rational_rows(k, cols)))
    m = draw(_rational_rows(rows, cols))
    i = draw(st.integers(0, rows - 1))
    if kind == "zero row":
        m[i] = [0] * cols
    elif kind == "duplicate row":
        m[i] = list(m[draw(st.integers(0, rows - 1))])
    return m


@settings(max_examples=500)
@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(a):
    r, pivots = la.rref(a)
    assert (r, pivots) == rref_oracle(a)
    assert all(type(x) is Fraction for row in r for x in row)


@settings(max_examples=300)
@given(rational_matrices(), st.data())
def test_matmul_matches_plain_products(a, data):
    b = data.draw(_rational_rows(len(a[0]), data.draw(st.integers(1, 5))))
    assert la.matmul(a, b) == tuple(map(tuple, _product(a, b)))


@settings(max_examples=300)
@given(rational_matrices(), st.data())
def test_solve_right_and_left_satisfy_the_equation(a, data):
    k = data.draw(st.integers(1, 3))
    consistent = data.draw(st.booleans())
    # a @ X = b: b consistent by construction, or arbitrary
    if consistent:
        b = _product(a, data.draw(_rational_rows(len(a[0]), k)))
    else:
        b = data.draw(_rational_rows(len(a), k))
    x = la.solve_right(a, b)
    if x is None:
        assert not consistent
        aug = [list(row) + list(extra) for row, extra in zip(a, b)]
        assert len(rref_oracle(aug)[1]) > len(rref_oracle(a)[1])
    else:
        assert _product(a, x) == [list(map(Fraction, row)) for row in b]
    # X @ a = c, c a combination of a's rows
    c = _product(data.draw(_rational_rows(k, len(a))), a)
    y = la.solve_left(a, c)
    assert y is not None and _product(y, a) == c


@settings(max_examples=300)
@given(rational_matrices())
def test_nullspace_vectors_are_annihilated(a):
    basis = la.nullspace(_rows(a))
    assert len(basis) == len(a[0]) - len(rref_oracle(a)[1])
    for v in basis:
        assert all(x == 0 for row in _product(a, [[x] for x in v]) for x in row)
    if basis:
        assert len(rref_oracle(basis)[1]) == len(basis)


# --- the integer-row kernels against the Fraction oracle ----------------------


# Bareiss ends [[1, 2], [3, 4]] on the pivot -2 and [[0, 1], [-1, 0]]
# (rows swapped) on -1; the zero matrix has no pivot, [[2, 4], [1, 2]] one
@settings(max_examples=400)
@given(rational_matrices())
@example([[1, 2], [3, 4]])
@example([[0, 1], [-1, 0]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4], [1, 2]])
def test_bareiss_rank_and_kernel_match_the_oracle(a):
    r, pivots = rref_oracle(a)
    rows, d, got_pivots = la.bareiss(_rows(a))
    assert d > 0 and got_pivots == pivots
    assert la.join(rows, d) == r
    assert la.rank(_rows(a)) == len(pivots)
    kernel = la.nullspace(_rows(a))
    assert all(type(x) is int for v in kernel for x in v)
    oracle = oracle_kernel(a)
    assert len(kernel) == len(oracle)
    for v, w in zip(kernel, oracle):
        free = next(j for j, x in enumerate(w) if x == 1 and j not in pivots)
        assert v[free] > 0  # a positive scale of the oracle vector
        assert [Fraction(x, v[free]) for x in v] == w


@settings(max_examples=400)
@given(rational_matrices(max_cols=5), st.data())
@example([[1, 2], [2, 4]], None)
@example([[0, 0], [0, 0]], None)
def test_solvability_and_solutions_match_the_oracle(a, data):
    if data is None:  # the explicit examples: a right-hand side off the image
        b = [[1], [0]]
    else:
        k = data.draw(st.integers(1, 3))
        b = (_product(a, data.draw(_rational_rows(len(a[0]), k)))
             if data.draw(st.booleans()) else data.draw(_rational_rows(len(a), k)))
    want = oracle_solution(a, b)
    (x, da), (y, db) = la.split(a), la.split(b)
    assert la.solve_right(a, b) == (None if want is None else tuple(want))
    sol = la.solve_int(x, y)
    assert (sol is None) == (want is None)
    if sol is not None:  # x (X / d) = y reads a (da X / (d db)) = b
        sx, d = sol
        assert d > 0 and all(type(v) is int for row in sx for v in row)
        assert la.join(la.scale_int(da, sx), d * db) == tuple(want)
    # X @ a = c, which is a^T @ X^T = c^T; c in a's row space half the time
    if data is None:
        c = [list(col) for col in zip(*b)]
    else:
        k = data.draw(st.integers(1, 3))
        c = (_product(data.draw(_rational_rows(k, len(a))), a)
             if data.draw(st.booleans()) else data.draw(_rational_rows(k, len(a[0]))))
    left = oracle_solution(list(zip(*a)), list(zip(*c)))
    assert la.solve_left(a, c) == (None if left is None else tuple(zip(*left)))


def _positive_multiple(v, w) -> bool:
    """Whether the integer vector v is c w for some c > 0."""
    c = next(Fraction(x) / y for x, y in zip(v, w) if y)
    return c > 0 and [Fraction(x) for x in v] == [c * y for y in w]


@settings(max_examples=400)
@given(rational_matrices(max_cols=5), st.data())
@example([[1, 2], [2, 4]], None)
@example([[0, 0], [0, 0]], None)
@example([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], None)
def test_integer_row_kernels_match_the_oracle_under_positive_scaling(a, data):
    """``nullspace``, ``rank`` and ``solve_int`` take the integer rows x
    and y of a = x / da and b = y / db, here scaled by their own positive
    factors ka and kb, and x's rows by their own factors too.
    Neither the kernel nor solvability moves, and a solution X / d of
    (ka x) X = kb y is a solution of a scaled by kb db / (ka da)."""
    if data is None:  # the explicit examples: one factor each, b off the image
        b, ka, kb, row_factors = [[1], [0]], 6, 35, [2, 3]
    else:
        k = data.draw(st.integers(1, 3))
        b = (_product(a, data.draw(_rational_rows(len(a[0]), k)))
             if data.draw(st.booleans()) else data.draw(_rational_rows(len(a), k)))
        ka, kb = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
        row_factors = data.draw(st.lists(st.integers(1, 9), min_size=len(a),
                                         max_size=len(a)))
    (x, da), (y, db) = la.split(a), la.split(b)
    x, y = la.scale_int(ka, x), la.scale_int(kb, y)
    by_row = [tuple(f * v for v in row) for f, row in zip(row_factors, x)]
    pivots = rref_oracle(a)[1]
    oracle = oracle_kernel(a)
    for rows in (x, by_row):
        assert la.rank(rows) == len(pivots)
        kernel = la.nullspace(rows)
        assert len(kernel) == len(oracle)
        assert all(_positive_multiple(v, w) for v, w in zip(kernel, oracle))
    want = oracle_solution(a, b)
    sol = la.solve_int(x, y)
    assert (sol is None) == (want is None)
    if sol is not None:
        sx, d = sol
        assert d > 0 and all(type(v) is int for row in sx for v in row)
        assert la.join(la.scale_int(ka * da, sx), d * kb * db) == tuple(want)


@settings(max_examples=300)
@given(rational_matrices(max_rows=4, max_cols=4), st.data())
def test_products_and_inverse_match_the_oracle(a, data):
    b = data.draw(_rational_rows(len(a[0]), data.draw(st.integers(1, 4))))
    (x, dx), (y, dy) = la.split(a), la.split(b)
    assert la.matmul(a, b) == tuple(map(tuple, _product(a, b)))
    assert la.join(la.matmul_int(x, y), dx * dy) == la.matmul(a, b)
    assert la.lowest(la.matmul_int(x, y), dx * dy) == la.split(la.matmul(a, b))
    c = data.draw(st.integers(-9, 9))
    assert la.join(la.scale_int(c, x), dx) == tuple(tuple(c * Fraction(v) for v in row)
                                                    for row in a)
    square = [row[:len(a)] for row in a] if len(a[0]) >= len(a) else None
    if square is None:
        return
    n = len(square)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    want = oracle_solution(square, eye)
    if want is None:
        with pytest.raises(ValueError):
            inverse(square)
    else:
        assert inverse(square) == tuple(want)
        assert _product(square, want) == [list(map(Fraction, row)) for row in eye]


def test_split_is_lowest_terms():
    a = [[Fraction(1, 6), Fraction(-3, 4)], [2, 0]]
    assert la.split(a) == (((2, -9), (24, 0)), 12)
    assert la.lowest(((4, -18), (48, 0)), 24) == la.split(a)
    assert la.split([[0, 0]]) == (((0, 0),), 1)
