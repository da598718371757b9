"""Exact linear algebra over the rationals and the integers.

Everything here works on immutable tuple-of-tuples matrices.

Rational routines take and return :class:`fractions.Fraction` entries but
compute fraction-free: ``rref`` scales each row to integers and eliminates
with Bareiss's exact integer updates, and ``matmul``/``apply_mat`` take
integer dot products of denominator-cleared rows and columns, so one
Fraction is built per output entry.  ``rank``, ``nullspace``, ``solve_*``,
``col_space_leq`` and ``inverse`` all go through ``rref``.  The rational
side calls nothing from the integer side, so the unstarred Green's routes
stay independent of the starred ones they are cross-checked against.

The integer routines never touch ``Fraction``: they share one unimodular
kernel, ``_echelon``, which brings integer rows to echelon form by
Euclidean row operations.  ``hnf_rows`` finishes its output into the
canonical Hermite normal form, which decides lattice containment
(``lattice_leq``); ``left_kernel_int`` echelons ``[m | I]`` and reads the
kernel off the identity tails; ``saturation`` is a double kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Row = tuple[Fraction, ...]
Mat = tuple[Row, ...]
IntRow = tuple[int, ...]
IntMat = tuple[IntRow, ...]


def _exact(x) -> int | Fraction:
    """x as an exact rational; ints and Fractions (immutable) pass as they
    are, which is much cheaper than re-wrapping them in Fraction."""
    return x if type(x) in (int, Fraction) else Fraction(x)


def mat_q(rows) -> Mat:
    """Coerce an iterable of iterables to a rational matrix."""
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in rows)


def mat_z(rows) -> IntMat:
    out = []
    for row in rows:
        r = []
        for x in row:
            f = _exact(x)
            if f.denominator != 1:
                raise ValueError(f"non-integer entry {x}")
            r.append(f.numerator)
        out.append(tuple(r))
    return tuple(out)


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def zeros(n: int, m: int) -> Mat:
    z = Fraction(0)
    return tuple(tuple(z for _ in range(m)) for _ in range(n))


def transpose(a) -> tuple[tuple, ...]:
    if not a:
        return ()
    return tuple(zip(*a))


def _cleared(row) -> tuple[list[int], int]:
    """Integers ns and the lcm d of the denominators with row == ns / d."""
    row = list(map(_exact, row))
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _dots(rows, cols) -> Mat:
    """The matrix of dot products of rows with cols: one integer dot
    product and one Fraction per entry."""
    cols = [_cleared(col) for col in cols]
    return tuple(
        tuple(Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols)
        for r, dr in map(_cleared, rows)
    )


def matmul(a, b) -> Mat:
    return _dots(a, transpose(b))


def scalar_mul(c, a) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def hstack(a, b) -> Mat:
    if not a:
        return mat_q(b)
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, b))


def rref(a) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Fraction-free Gauss-Jordan (Bareiss): each row is first scaled to
    integers, which leaves the RREF unchanged.  Eliminating column c with
    pivot p turns every other row y into (p*y - f*x) / prev, where x is the
    pivot row, f is y's entry in column c and prev the previous pivot; by
    Sylvester's identity the division is exact, all entries stay minors of
    the scaled input, and every pivot ends equal to the last one, so one
    division per entry at the end gives the RREF.
    """
    rows = [_cleared(row)[0] for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
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
        if r == nrows:
            break
    return tuple(tuple(Fraction(x, prev) for x in row) for row in rows), tuple(pivots)


def rank(a) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a) -> tuple[Row, ...]:
    """Basis of the right kernel {v : a v = 0}, vectors as tuples."""
    if not a:
        return ()
    r, pivots = rref(a)
    ncols = len(a[0])
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][free]
        basis.append(tuple(v))
    return tuple(basis)


def apply_mat(a, v) -> Row:
    return tuple(row[0] for row in _dots(a, (v,)))


def solve_right(a, b) -> Mat | None:
    """X with a @ X = b, or None.  Free variables are set to zero."""
    m = shape(a)[1]
    aug, pivots = rref(hstack(a, b))
    k = len(b[0]) if b else 0
    if any(p >= m for p in pivots):
        return None
    x = [[Fraction(0)] * k for _ in range(m)]
    for i, p in enumerate(pivots):
        for j in range(k):
            x[p][j] = aug[i][m + j]
    return tuple(tuple(row) for row in x)


def solve_left(a, b) -> Mat | None:
    """X with X @ a = b, or None."""
    xt = solve_right(transpose(a), transpose(b))
    return None if xt is None else transpose(xt)


def col_space_leq(a, b) -> bool:
    """True iff every column of a lies in the column span of b."""
    return rank(b) == rank(hstack(b, a))


def inverse(a) -> Mat:
    n, m = shape(a)
    if n != m:
        raise ValueError("not square")
    inv = solve_right(a, identity(n))
    if inv is None:
        raise ValueError("singular matrix")
    return inv


def lcm_denoms(a) -> int:
    return lcm(*(_exact(x).denominator for row in a for x in row))


# --- integer lattice routines --------------------------------------------


def _echelon(rows, ncols: int) -> tuple[list[list[int]], int]:
    """Row echelon form of integer rows over their first ``ncols`` columns.

    Only unimodular row operations are used (swaps and subtracting integer
    multiples, Euclid's algorithm down each column; Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4), so the rows keep
    spanning the same lattice.  Returns the rows and the rank r: rows[:r]
    have pivots moving strictly right within the first ``ncols`` columns,
    and rows[r:] vanish there.
    """
    work = [list(row) for row in rows]
    r = 0
    for c in range(ncols):
        while live := [i for i in range(r, len(work)) if work[i][c]]:
            if len(live) == 1:
                work[r], work[live[0]] = work[live[0]], work[r]
                r += 1
                break
            p = min(live, key=lambda i: abs(work[i][c]))
            for i in live:
                if i != p:
                    q = work[i][c] // work[p][c]
                    work[i] = [x - q * y for x, y in zip(work[i], work[p])]
        if r == len(work):
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


def lattice_leq(rows_a, rows_b) -> bool:
    """True iff the row lattice of rows_a is contained in that of rows_b:
    adding rows_a to rows_b leaves the canonical HNF unchanged."""
    h = hnf_rows(rows_b)
    return hnf_rows([*h, *rows_a]) == h


def left_kernel_int(m: IntMat) -> IntMat:
    """Canonical basis of {x in Z^k : x m = 0} for an integer k-row matrix.

    Echelons [m | I] over m's columns; the identity tails of the rows whose
    m-part vanishes generate the kernel lattice exactly.
    """
    if not m:
        return ()
    n = len(m[0])
    aug = [[*row, *(int(i == j) for j in range(len(m)))] for i, row in enumerate(m)]
    work, r = _echelon(aug, n)
    return hnf_rows([row[n:] for row in work[r:]])


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


def is_integer_matrix(a) -> bool:
    return all(_exact(x).denominator == 1 for row in a for x in row)

