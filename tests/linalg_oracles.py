"""Matrix helpers for tests: rational coercion, the inverse and lattice
containment.

The library compares lattices only through integer kernels, so the
containment test by canonical Hermite forms lives beside the tests, where
it is the oracle for the starred Green's orders.  Nothing in the library
inverts a matrix either.
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


def lattice_leq(rows_a, rows_b) -> bool:
    """True iff the row lattice of rows_a is contained in that of rows_b:
    adding rows_a to rows_b leaves the canonical HNF unchanged."""
    h = la.hnf_rows(rows_b)
    return la.hnf_rows([*h, *rows_a]) == h
