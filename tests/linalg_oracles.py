"""Matrix helpers for tests: rational coercion, the inverse, column-space
containment and lattice containment.

The library compares lattices only through integer kernels, so the
containment test by canonical Hermite forms lives beside the tests, where
it is the oracle for the starred Green's orders.  Likewise the L order is
one rational kernel in the library, and the rank count that it replaced is
its oracle here.  Nothing in the library inverts a matrix either.
"""

from __future__ import annotations

from fractions import Fraction

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
