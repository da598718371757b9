"""Matrix backend: endomorphism monoids of rational vector spaces and of
free abelian groups.

An endomorphism of Q^n is an n x n rational matrix acting on column
vectors; an endomorphism of Z^n is the integer case.  The order- and
divisibility-theoretic predicates below are all phrased through kernels
and column spaces:

* ``greens_leq(side="R")``  -- kernel containment (null(b) <= null(a)),
  equivalent to solvability of a = g @ b;
* ``greens_leq(side="L")``  -- column-space containment, equivalent to
  solvability of a = b @ g; it is R's transpose dual (every x with
  x b = 0 has x a = 0), so each of R and L is one rational kernel;
* the starred variants apply to integer matrices and are each one integer
  kernel, independent of the rational route used for the unstarred ones:
  ``Rstar`` asks whether a kills the integer right kernel of b, and
  ``Lstar``, containment of the pure closures (saturations) of the column
  lattices, is its transpose dual: every integer x with x b = 0 has
  x a = 0.  Annihilation needs only generators of a kernel, not its
  canonical basis.

Composition convention: "apply a, then b" is the matrix product b @ a.

A matrix crosses this surface as ``(rows, d)``: integer rows over one
positive denominator, in lowest terms, as ``linalg.split`` gives them
(End(Z^n) is a left order in End(Q^n), so every rational matrix is d^-1 B
with B integer).  The CLI splits each payload matrix once; ``greens_leq``,
``decompose`` (whose parts have d = 1), ``verify_decomposition``,
``straight_certificates``, ``show`` and the samplers take or return that
form, and ``show`` writes each entry as ``str(Fraction)`` would.  A
``Fraction`` is built only by ``divides_left`` and ``group_inverse``, which
take and return Fraction matrices, and by the one ``rref`` of
``straight_left_decompose``.

The names it shares with its sibling ``acts`` (neither imports the other),
which the CLI calls on either backend: ``MODES``, ``decompose`` (an
``(a, b)`` pair), ``verify_decomposition``, ``greens_leq``, ``quot``,
``embed`` (``quot`` of its fields after the first, that field the unit),
``quotient_eq`` and ``show`` (an endomorphism as report JSON).  Its samplers
draw through the package's ``randints``.

``divides_left`` and the public ``group_inverse`` have no caller in the
package: the decomposition checks use ``_group_inverse``.  They stay only
because the benchmark's span table, ``TARGETS`` in ``perfbench/spans.py``,
wraps them by name; deleting them waits for a change to the benchmark.
"""

from __future__ import annotations

import random
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from . import randints
from .linalg import (
    IntMat,
    Mat,
    bareiss,
    identity,
    join,
    left_kernel_gens,
    lowest,
    matmul_int,
    nullspace,
    rank,
    rref,
    scale_int,
    shape,
    solve_int,
    solve_left,
    split,
    transpose,
    zeros,
)


class NoGroupInverse(ValueError):
    pass


def greens_leq(side: str, a, b) -> bool:
    """Green's order comparisons for matrix endomorphisms.

    a and b are ``(rows, d)``.  R and L compare rational matrices through
    one rational kernel each, which the denominators do not change, so they
    read the rows alone; Rstar and Lstar compare integer matrices through
    one integer kernel each, and refuse a non-integer one.  In both pairs
    the left order is the transpose dual of the right one: L(a, b) is
    R(a^T, b^T).
    """
    if side == "R":
        return _annihilates(a[0], nullspace(b[0]))
    if side == "L":
        return _annihilates(transpose(a[0]), nullspace(transpose(b[0])))
    if side == "Rstar":
        a, b = _integer(a), _integer(b)
        return _annihilates(a, left_kernel_gens(transpose(b)))
    if side == "Lstar":
        a, b = _integer(a), _integer(b)
        return _annihilates(transpose(a), left_kernel_gens(b))
    raise ValueError(f"unknown side {side!r}")


def _integer(m) -> IntMat:
    """The integer matrix m = (rows, d) as rows; ValueError naming its
    first non-integer entry when it has one."""
    rows, d = m
    if d == 1:
        return rows
    for x in chain.from_iterable(rows):
        if x % d:
            raise ValueError(f"non-integer entry {_entry(x, d)}")
    return tuple(tuple(x // d for x in row) for row in rows)


def _annihilates(rows, vectors) -> bool:
    """True iff every integer row has a zero dot product with every vector."""
    return all(not any(sum(map(mul, row, v)) for row in rows) for v in vectors)


# --- divisibility (the second route to R) ------------------------------------


def divides_left(a, b) -> Mat | None:
    """g with a = g @ b if one exists (a is a left multiple of b)."""
    return solve_left(b, a)


# --- group inverses ---------------------------------------------------------


def _group_inverse(s: IntMat, ds: int) -> tuple[IntMat, int]:
    """The group inverse of s / ds as integer rows over a positive
    denominator; see ``group_inverse``."""
    n, m = shape(s)
    if n != m:
        raise ValueError("not square")
    rows, d, pivots = bareiss(s)
    r = len(pivots)
    if r == 0:
        return zeros(n, n), 1
    # s = b c with b = s's pivot columns / ds and c = rows[:r] / d, so
    # (c b)^-1 = d ds w / dw for (w, dw) solving (c b)_int w = I
    b = tuple(tuple(row[j] for j in pivots) for row in s)
    c = rows[:r]
    sol = solve_int(matmul_int(c, b), identity(r))
    if sol is None:
        raise NoGroupInverse("rank(s) != rank(s^2)")
    w, dw = sol
    # b (c b)^-2 c = d ds (b w w c) / dw^2
    return scale_int(d * ds, matmul_int(matmul_int(b, matmul_int(w, w)), c)), dw * dw


def group_inverse(s) -> Mat:
    """The group inverse of s, when s lies in a subgroup of the
    multiplicative monoid of square rational matrices.

    By full-rank factorisation (Cline, SIAM J. Numer. Anal. 1968): s = b c
    with b the pivot columns of s (n x r) and c the nonzero rows of its
    RREF (r x n).  s has a group inverse iff the r x r matrix c b is
    invertible (equivalently rank(s) == rank(s @ s)), and then
    s# = b (c b)^-2 c.  Raises NoGroupInverse otherwise.
    """
    return join(*_group_inverse(*split(s)))


# --- decompositions ---------------------------------------------------------


MODES = ("left", "right", "straight")


def decompose(alpha, mode: str) -> tuple[tuple[IntMat, int], tuple[IntMat, int]]:
    """alpha = a# . b ('left', 'straight') or a . b# ('right') with integer
    parts, each as ``(rows, 1)``.  For alpha = rows / d, 'left' takes
    a = d I and b = rows ((d I)# = (1/d) I), and 'right' a = rows and
    b = d I."""
    if mode == "straight":
        a, b = straight_left_decompose(alpha)
        return (a, 1), (b, 1)
    rows, d = alpha
    scalar = scale_int(d, identity(len(rows)))
    if mode == "left":
        return (scalar, 1), (rows, 1)
    if mode == "right":
        return (rows, 1), (scalar, 1)
    raise ValueError(f"unknown mode {mode!r}")


def straight_left_decompose(alpha) -> tuple[IntMat, IntMat]:
    """alpha = a# . b with a = m E and b = m alpha for E a projector with
    range col(alpha), so E @ alpha = alpha, and m the least factor that
    makes both integer.

    E is read off R = RREF(alpha^T): column p_t of E is row t of R, for
    p_t its t-th pivot, and every other column is zero.  E fixes each row
    of R, which span col(alpha), and kills the unit vectors of R's
    non-pivot columns.  a and alpha share a column space, so the pair is
    L-related; it is not in general R-related (ker a = ker b), so it is
    straight in the row-vector convention only.
    """
    al, da = alpha
    n = len(al)
    rr, pivots = rref(transpose(al))
    rows, d = split(rr[:len(pivots)])
    cols = dict(zip(pivots, rows))
    zero = (0,) * n
    e, de = lowest(transpose([cols.get(j, zero) for j in range(n)]), d)
    m = lcm(de, da)
    return scale_int(m // de, e), scale_int(m // da, al)


def _times_q(x: tuple[IntMat, int], y: tuple[IntMat, int]) -> tuple[IntMat, int]:
    """The product of two rational matrices given as (rows, d), in lowest
    terms."""
    return lowest(matmul_int(x[0], y[0]), x[1] * y[1])


def verify_decomposition(alpha, dec, mode: str) -> bool:
    """Recompose dec = (a, b), two integer matrices, exactly: as a# @ b
    for 'left' and 'straight', as a @ b# for 'right'."""
    a, b = (lowest(*part) for part in dec)
    if a[1] != 1 or b[1] != 1:
        return False
    if mode in ("left", "straight"):
        return _times_q(_group_inverse(*a), b) == lowest(*alpha)
    if mode == "right":
        return _times_q(a, _group_inverse(*b)) == lowest(*alpha)
    raise ValueError(f"unknown mode {mode!r}")


def straight_certificates(alpha, dec) -> dict:
    """Three checks on a straight decomposition dec = (a, b) of alpha:

    * ``projector_fixes_alpha``: a# a alpha = alpha, that is, a# a fixes
      every column of alpha;
    * ``rank_match``: a has the rank of alpha;
    * ``recompose``: a# @ b = alpha, the recomposition
      ``verify_decomposition`` checks.

    None of them certifies ker a = ker b, the condition that makes the pair
    straight in the documented column convention.  The pair
    ``straight_left_decompose`` gives is L-related, and a low-rank one
    passes all three without being R-related: a wrong report still open."""
    a, b = dec
    alpha = lowest(*alpha)
    ga = _group_inverse(*a)
    return {
        "projector_fixes_alpha": _times_q(ga, _times_q(a, alpha)) == alpha,
        "rank_match": rank(a[0]) == rank(alpha[0]),
        "recompose": _times_q(ga, b) == alpha,
    }


def _entry(x: int, d: int) -> str:
    """x / d, for d > 0, as ``str(Fraction(x, d))`` writes it: p/q in
    lowest terms, or p alone when q is 1."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def show(m) -> list[list[str]]:
    """An endomorphism (rows, d) as report JSON: rows of exact strings."""
    rows, d = m
    return [[_entry(x, d) for x in row] for row in rows]


# --- quotient elements ------------------------------------------------------


class QuotElem(NamedTuple):
    """Canonical fraction t \\ v over the positive integers acting on Z^n
    by scalar multiplication: the pair (t, v) reduced by gcd(t, content(v))."""

    t: int
    v: tuple[int, ...]

    def as_dict(self):
        return {"t": self.t, "v": list(self.v)}


def quot(t: int, v) -> QuotElem:
    if t <= 0:
        raise ValueError("denominator tag must be positive")
    v = tuple(int(x) for x in v)
    g = gcd(t, *v)
    if g > 1:
        t //= g
        v = tuple(x // g for x in v)
    return QuotElem(t, v)


def embed(v) -> QuotElem:
    return quot(1, v)


def quotient_eq(p: QuotElem, q: QuotElem) -> bool:
    """Equality of canonical forms: ``quot`` reduces each fraction to its
    unique pair with t > 0 and gcd(t, content(v)) = 1.  Vectors of
    different lengths are not comparable."""
    if len(p.v) != len(q.v):
        raise ValueError(f"vector lengths differ: {len(p.v)} and {len(q.v)}")
    return p == q


# --- seeded sampling --------------------------------------------------------


_NONZERO = [d for d in range(-9, 10) if d != 0]


def rand_rational_matrix(rng: random.Random, n: int) -> tuple[IntMat, int]:
    """Entries p / q row by row, p drawn from -9..9 and then q from the
    nonzero ones, as (rows, d) in lowest terms: d is the lcm of the
    reduced denominators |q| / gcd(p, q), and p d / q is exact."""
    draws = iter(randints(rng, [(-9, 9), (0, 17)] * (n * n)))
    pairs = [(p, _NONZERO[q]) for p, q in zip(draws, draws)]
    d = lcm(*[q // gcd(p, q) for p, q in pairs])
    return _rows([p * d // q for p, q in pairs], n), d


def rand_int_matrix(rng: random.Random, n: int) -> tuple[IntMat, int]:
    """Random integer matrix, as (rows, 1); with probability 0.4, a product
    of thin factors so that rank-deficient cases are well represented."""
    if n > 1 and rng.random() < 0.4:
        k = rng.randint(1, n - 1)
        ab = randints(rng, [(-4, 4)] * (2 * n * k))  # n x k, then k x n
        return matmul_int(_rows(ab[:n * k], k), _rows(ab[n * k:], n)), 1
    return _rows(randints(rng, [(-9, 9)] * (n * n)), n), 1


def _rows(entries: list, width: int) -> tuple[tuple, ...]:
    """The row-major ``entries`` as rows of ``width``."""
    return tuple(zip(*[iter(entries)] * width))
