"""Matrix helpers for tests: rational coercion, the inverse, column-space
containment, lattice containment and the straight pair by conjugation.

The library compares lattices only through integer kernels, so the
containment test by canonical Hermite forms lives beside the tests, where
it is the oracle for the starred Green's orders.  Likewise the L order is
one rational kernel in the library, and the rank count that it replaced is
its oracle here.  Nothing in the library inverts a matrix either, so the
projector of the straight decomposition, which the library reads off one
echelon, is built here by conjugating a diagonal one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from indalg.orders import linalg as la


def mat_q(rows) -> la.Mat:
    """Coerce an iterable of iterables to a rational matrix."""
    return tuple(tuple(map(Fraction, row)) for row in rows)


def inverse(a) -> la.Mat:
    if len(a) != la.shape(a)[1]:
        raise ValueError("not square")
    sol = la.solve_int(a, la.identity(len(a)))
    if sol is None:
        raise ValueError("singular matrix")
    return la.join(*sol)


def col_space_leq(a, b) -> bool:
    """True iff every column of a lies in the column span of b: appending
    a's columns to b leaves its rank unchanged."""
    return la.rank(b) == la.rank(la.hstack(b, a))


def lattice_leq(rows_a, rows_b) -> bool:
    """True iff the row lattice of rows_a is contained in that of rows_b:
    adding rows_a to rows_b leaves the canonical HNF unchanged."""
    h = la.hnf_rows(rows_b)
    return la.hnf_rows([*h, *rows_a]) == h


def straight_by_conjugation(alpha) -> tuple[la.IntMat, la.IntMat]:
    """The straight pair (m E, m alpha) of ``matrix.straight_left_decompose``
    with E = p diag(1, .., 1, 0, .., 0) p^-1, where p's columns are the r
    nonzero rows of RREF(alpha^T) followed by the unit vectors of its
    non-pivot columns, and m the least factor making both integer."""
    n = len(alpha)
    rr, pivots = la.rref(la.transpose(alpha))
    r = len(pivots)
    units = (tuple(Fraction(i == j) for i in range(n)) for j in range(n) if j not in pivots)
    p = la.transpose((*rr[:r], *units))
    p_diag = tuple(tuple(x if j < r else 0 for j, x in enumerate(row)) for row in p)
    e, de = la.split(la.matmul(p_diag, inverse(p)))
    al, da = la.split(alpha)
    m = lcm(de, da)
    return la.scale_int(m // de, e), la.scale_int(m // da, al)
