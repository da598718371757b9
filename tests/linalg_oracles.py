"""Matrix helpers for tests: rational coercion, the Fraction Gauss-Jordan
oracle, the inverse, column-space containment, lattice containment and the
straight pair by conjugation.

The library's rational kernel is fraction-free and takes integer rows, so
the plain ``Fraction`` elimination it replaced lives here, as the oracle for
its RREF, kernels and solutions.  The library compares lattices only
through integer kernels, so the containment test by canonical Hermite forms
lives beside the tests, where it is the oracle for the starred Green's
orders.  Likewise the L order is one rational kernel in the library, and
the rank count that it replaced is its oracle here.  Nothing in the library
inverts a matrix either, so the projector of the straight decomposition,
which the library reads off one echelon, is built here by conjugating a
diagonal one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from indalg.orders import linalg as la


def mat_q(rows) -> la.Mat:
    """Coerce an iterable of iterables to a rational matrix."""
    return tuple(tuple(map(Fraction, row)) for row in rows)


def rank_q(a) -> int:
    """The rank of a matrix of ints and Fractions, through its split rows."""
    return la.rank(la.split(a)[0])


def rref_oracle(a):
    """Fraction Gauss-Jordan elimination: ``rref`` as it was computed before
    the fraction-free kernel, kept verbatim as the oracle."""
    rows = [list(map(Fraction, row)) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def oracle_kernel(a):
    """The RREF kernel basis: 1 at each free column, minus the RREF entries
    at the pivots."""
    r, pivots = rref_oracle(a)
    basis = []
    for free in range(len(a[0])):
        if free not in pivots:
            v = [Fraction(0)] * len(a[0])
            v[free] = Fraction(1)
            for row, p in zip(r, pivots):
                v[p] = -row[free]
            basis.append(v)
    return basis


def oracle_solution(a, b):
    """X with a @ X = b read off the RREF of [a | b], free variables zero;
    None when a pivot falls in b's columns."""
    m = len(a[0])
    r, pivots = rref_oracle([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if any(p >= m for p in pivots):
        return None
    x = [[Fraction(0)] * len(b[0]) for _ in range(m)]
    for row, p in zip(r, pivots):
        x[p] = list(row[m:])
    return [tuple(row) for row in x]


def inverse(a) -> la.Mat:
    if len(a) != la.shape(a)[1]:
        raise ValueError("not square")
    inv = la.solve_right(a, la.identity(len(a)))
    if inv is None:
        raise ValueError("singular matrix")
    return inv


def col_space_leq(a, b) -> bool:
    """True iff every column of a lies in the column span of b: appending
    a's columns to b leaves its rank unchanged."""
    return rank_q(b) == rank_q(la.hstack(b, a))


def lattice_leq(rows_a, rows_b) -> bool:
    """True iff the row lattice of rows_a is contained in that of rows_b:
    adding rows_a to rows_b leaves the canonical HNF unchanged."""
    h = la.hnf_rows(rows_b)
    return la.hnf_rows([*h, *rows_a]) == h


def straight_by_conjugation(alpha) -> tuple[la.IntMat, la.IntMat]:
    """The straight pair (m E, m alpha) of ``matrix.straight_left_decompose``
    for alpha given as (rows, d), with E = p diag(1, .., 1, 0, .., 0) p^-1,
    where p's columns are the r nonzero rows of RREF(alpha^T) followed by
    the unit vectors of its non-pivot columns, and m the least factor making
    both integer."""
    al, da = alpha
    n = len(al)
    rr, pivots = rref_oracle(la.transpose(la.join(al, da)))
    r = len(pivots)
    units = (tuple(Fraction(i == j) for i in range(n)) for j in range(n) if j not in pivots)
    p = la.transpose((*rr[:r], *units))
    p_diag = tuple(tuple(x if j < r else 0 for j, x in enumerate(row)) for row in p)
    e, de = la.split(la.matmul(p_diag, inverse(p)))
    m = lcm(de, da)
    return la.scale_int(m // de, e), la.scale_int(m // da, al)
