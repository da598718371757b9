"""Exact linear algebra over the rationals and the integers.

Matrices are tuples of row tuples.  After the shared helpers come two
halves that never call each other, so the unstarred Green's routes stay
independent of the starred ones they are cross-checked against.

The rational half holds a rational matrix as integer rows over one
positive denominator, ``(rows, d)``: the paper's own form d^-1 B of an
element of End(Q^n), with B in End(Z^n).  Scaling a row by a positive
factor changes neither a kernel nor solvability, so ``rank``,
``nullspace`` and ``solve_int`` take integer rows alone, and a rational
caller passes its rows without the denominator.  Their kernel ``bareiss``
returns an RREF's integer rows, denominator and pivot columns: ``rank``
reads only the pivots, ``nullspace`` and ``solve_int`` read integer
vectors off the rows, and ``solve_int`` answers None, unsolvable, when a
pivot of [a | b] lies in b.  ``Fraction`` enters through ``split``, which
takes Fraction (or int) entries to ``(rows, d)`` in lowest terms, and
leaves through ``join``, both at the edges only: the CLI splits each
matrix it reads once, and the Fraction-valued routines (``rref``,
``matmul``, ``solve_right``, ``solve_left`` and ``matrix.group_inverse``)
split what they take and join what they return.

The integer half never touches ``Fraction``.  Its unimodular kernel
``_echelon`` makes one pass per pivot row, clearing the column below it
by one extended-Euclid 2 x 2 step per live row; ``hnf_rows`` finishes
that into the canonical Hermite normal form; ``left_kernel_gens`` echelons
``[m | I]`` and reads a generating set of the kernel off the identity
tails, which ``left_kernel_int`` puts in Hermite form.  Each starred
Green's order only tests annihilation, so it is one echelon of the
generators (``matrix.greens_leq``); ``saturation``, a double canonical
kernel, is not on that path.

Nothing in the package calls ``matmul``, ``solve_right``, ``solve_left``
or ``saturation``, nor, except through them, ``_solve_q``,
``right_kernel_int``, ``left_kernel_int`` and ``hnf_rows``: the one caller
of ``solve_left`` is ``matrix.divides_left``, which has none.  They stay
only because the benchmark's span table, ``TARGETS`` in
``perfbench/spans.py``, wraps them by name; deleting them waits for a
change to the benchmark.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul

Mat = tuple[tuple[Fraction, ...], ...]
IntMat = tuple[tuple[int, ...], ...]


def shape(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zeros(n: int, m: int) -> IntMat:
    return ((0,) * m,) * n


def transpose(a) -> tuple[tuple, ...]:
    return tuple(zip(*a))


# --- rational routines: integer rows over one positive denominator -------


def split(a) -> tuple[IntMat, int]:
    """(rows, d) with a == rows / d in lowest terms, d the denominators' lcm."""
    d = lcm(*map(attrgetter("denominator"), chain.from_iterable(a)))
    if d == 1:
        return tuple(tuple(map(attrgetter("numerator"), row)) for row in a), 1
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in a), d


def join(rows, d: int) -> Mat:
    """The Fraction matrix rows / d."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


def lowest(rows, d: int) -> tuple[IntMat, int]:
    """rows / d (d > 0) in lowest terms: both divided by gcd(d, entries)."""
    g = gcd(d, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), d // g


def matmul_int(a, b) -> IntMat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def scale_int(c: int, a) -> IntMat:
    return tuple(tuple(c * x for x in row) for row in a)


def hstack(a, b) -> tuple[tuple, ...]:
    return tuple((*ra, *rb) for ra, rb in zip(a, b))


def bareiss(rows) -> tuple[IntMat, int, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
    1968) of integer rows: (rows, d, pivots) with rows / d the reduced row
    echelon form, d > 0 and ``pivots`` its pivot columns.

    Eliminating column c with pivot p turns every other row y into
    (p*y - f*x) / prev, with x the pivot row, f = y[c] and prev the last
    pivot; by Sylvester's identity the division is exact and every pivot
    ends equal to the last one, which is d up to sign.
    """
    rows = [list(row) for row in rows]
    nrows, ncols = shape(rows)
    pivots, prev, r = [], 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        x = rows[r]
        p = x[c]
        for i in range(nrows):
            if i != r:
                y = rows[i]
                f = y[c]
                if f:
                    rows[i] = [(p * yj - f * xj) // prev for yj, xj in zip(y, x)]
                else:
                    rows[i] = [p * yj // prev for yj in y]
        prev = p
        pivots.append(c)
        r += 1
    s = -1 if prev < 0 else 1
    return tuple(tuple(s * x for x in row) for row in rows), s * prev, tuple(pivots)


def rref(a) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    rows, d, pivots = bareiss(split(a)[0])
    return join(rows, d), pivots


def rank(a) -> int:
    """The rank of the integer rows a."""
    return len(bareiss(a)[2])


def nullspace(a) -> IntMat:
    """Integer basis of the right kernel {v : a v = 0} of integer rows a:
    for each free column f of a's RREF rows / d, d at f and -row[f] at each
    row's pivot (the RREF kernel vector scaled by d > 0)."""
    rows, d, pivots = bareiss(a)
    ncols = shape(a)[1]
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [0] * ncols
            v[free] = d
            for row, p in zip(rows, pivots):
                v[p] = -row[free]
            basis.append(tuple(v))
    return tuple(basis)


def matmul(a, b) -> Mat:
    (x, dx), (y, dy) = split(a), split(b)
    return join(matmul_int(x, y), dx * dy)


def solve_int(a, b) -> tuple[IntMat, int] | None:
    """(X, d) with a @ (X / d) = b for integer rows a and b, X integer and
    d > 0, or None.  Free variables are set to zero, so X / d is read off
    the RREF of [a | b]."""
    m, k = shape(a)[1], shape(b)[1]
    rows, d, pivots = bareiss(hstack(a, b))
    if pivots and pivots[-1] >= m:
        return None
    x = [(0,) * k] * m
    for row, p in zip(rows, pivots):
        x[p] = row[m:]
    return tuple(x), d


def _solve_q(a, b) -> tuple[IntMat, int] | None:
    """``solve_int`` for rational a and b.  With a = x / da and b = y / db,
    x @ (X / d) = y gives a @ (da X / (d db)) = b."""
    (x, da), (y, db) = split(a), split(b)
    sol = solve_int(x, y)
    return None if sol is None else (scale_int(da, sol[0]), sol[1] * db)


def solve_right(a, b) -> Mat | None:
    """X with a @ X = b, or None.  Free variables are set to zero."""
    sol = _solve_q(a, b)
    return None if sol is None else join(*sol)


def solve_left(a, b) -> Mat | None:
    """X with X @ a = b, or None."""
    sol = _solve_q(transpose(a), transpose(b))
    return None if sol is None else transpose(join(*sol))


# --- integer lattice routines --------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s a + t b a gcd of a and b (of either sign)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _echelon(rows, ncols: int) -> tuple[list[list[int]], int]:
    """Row echelon form of integer rows over their first ``ncols`` columns.

    Only unimodular row operations are used (Euclid's algorithm down each
    column; Cohen, *A Course in Computational Algebraic Number Theory*,
    2.4), so the rows keep spanning the same lattice.  In column c the
    first live row becomes the pivot row x, and each later row y with
    b = y[c] != 0 is cleared in one step: y -= (b / a) x when a = x[c]
    divides b, else, with g = s a + t b = gcd(a, b), the 2 x 2 step of
    determinant 1  x, y <- s x + t y, (a/g) y - (b/g) x.  Returns the rows
    and the rank r: rows[:r] have pivots moving strictly right within the
    first ``ncols`` columns, and rows[r:] vanish there.
    """
    work = [list(row) for row in rows]
    n, r = len(work), 0
    for c in range(ncols):
        p = next((i for i in range(r, n) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        x = work[r]
        for i in range(r + 1, n):
            y = work[i]
            b = y[c]
            if not b:
                continue
            a = x[c]
            q, rem = divmod(b, a)
            if not rem:
                work[i] = [yj - q * xj for yj, xj in zip(y, x)]
                continue
            g, s, t = _xgcd(a, b)
            a, b = a // g, b // g
            work[i] = [a * yj - b * xj for yj, xj in zip(y, x)]
            x = [s * xj + t * yj for xj, yj in zip(x, y)]
        work[r] = x
        r += 1
        if r == n:
            break
    return work, r


def hnf_rows(rows) -> IntMat:
    """Canonical row-style Hermite normal form of the lattice spanned by
    ``rows``.  Zero rows are dropped; pivots are positive and entries above
    each pivot are reduced into [0, pivot)."""
    rows = list(rows)
    work, r = _echelon(rows, len(rows[0]) if rows else 0)
    work = work[:r]
    for i, row in enumerate(work):
        c = next(j for j, x in enumerate(row) if x)
        if row[c] < 0:
            work[i] = row = [-x for x in row]
        for above in range(i):
            q = work[above][c] // row[c]
            if q:
                work[above] = [x - q * y for x, y in zip(work[above], row)]
    return tuple(map(tuple, work))


def left_kernel_gens(m: IntMat) -> list[list[int]]:
    """A basis, not canonical, of {x in Z^k : x m = 0} for an integer
    k-row matrix.

    Echelons [m | I] over m's columns; the identity tails of the rows whose
    m-part vanishes generate the kernel lattice exactly.
    """
    if not m:
        return []
    n = len(m[0])
    aug = [[*row, *(int(i == j) for j in range(len(m)))] for i, row in enumerate(m)]
    work, r = _echelon(aug, n)
    return [row[n:] for row in work[r:]]


def left_kernel_int(m: IntMat) -> IntMat:
    """Canonical basis of {x in Z^k : x m = 0}: ``left_kernel_gens`` in
    Hermite normal form."""
    return hnf_rows(left_kernel_gens(m))


def right_kernel_int(m: IntMat) -> IntMat:
    """Canonical basis (as rows) of {v in Z^n : m v = 0}."""
    return left_kernel_int(transpose(m))


def saturation(rows, dim: int) -> IntMat:
    """Canonical basis of (Q-span of rows) ∩ Z^dim.

    Computed as a double kernel: the rational row span is the left kernel
    of any integer matrix whose columns span the right kernel of ``rows``,
    and taking that left kernel over Z yields the saturated lattice.  A
    zero right kernel is passed as a dim x 0 matrix, whose left kernel is
    all of Z^dim.
    """
    rows = tuple(r for r in rows if any(r))
    if not rows:
        return ()
    return left_kernel_int(transpose(right_kernel_int(rows)) or ((),) * dim)
