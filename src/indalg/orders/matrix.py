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

The names it shares with its sibling ``acts`` (neither imports the other),
which the CLI calls on either backend: ``MODES``, ``decompose`` (an
``(a, b)`` pair), ``verify_decomposition``, ``greens_leq``, ``quot``,
``embed`` (``quot`` of its fields after the first, that field the unit),
``quotient_eq`` and ``show`` (an endomorphism as report JSON).  Its samplers
draw through the package's ``randints``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from . import randints
from ..report import fmt_mat
from .linalg import (
    IntMat,
    Mat,
    bareiss,
    identity,
    is_integer_matrix,
    join,
    left_kernel_gens,
    lowest,
    mat_z,
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

    R and L compare rational matrices through one rational kernel each,
    Rstar and Lstar integer matrices through one integer kernel each; in
    both pairs the left order is the transpose dual of the right one:
    L(a, b) is R(a^T, b^T).
    """
    if side == "R":
        return _annihilates(split(a)[0], nullspace(b))
    if side == "L":
        return _annihilates(split(transpose(a))[0], nullspace(transpose(b)))
    if side == "Rstar":
        a, b = mat_z(a), mat_z(b)
        return _annihilates(a, left_kernel_gens(transpose(b)))
    if side == "Lstar":
        a, b = mat_z(a), mat_z(b)
        return _annihilates(transpose(a), left_kernel_gens(b))
    raise ValueError(f"unknown side {side!r}")


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


def decompose(alpha, mode: str) -> tuple[IntMat, IntMat]:
    """alpha = a# . b ('left', 'straight') or a . b# ('right') with integer
    parts.  For d the lcm of alpha's denominators, 'left' takes a = d I and
    b = d alpha ((d I)# = (1/d) I), and 'right' a = d alpha and b = d I."""
    if mode == "straight":
        return straight_left_decompose(alpha)
    rows, d = split(alpha)
    scalar = scale_int(d, identity(len(rows)))
    if mode == "left":
        return scalar, rows
    if mode == "right":
        return rows, scalar
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
    al, da = split(alpha)
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
    """Recompose dec = (a, b) exactly: as a# @ b for 'left' and
    'straight', as a @ b# for 'right'."""
    a, b = dec
    if not is_integer_matrix(a) or not is_integer_matrix(b):
        return False
    a, b = split(a), split(b)
    if mode in ("left", "straight"):
        return _times_q(_group_inverse(*a), b) == split(alpha)
    if mode == "right":
        return _times_q(a, _group_inverse(*b)) == split(alpha)
    raise ValueError(f"unknown mode {mode!r}")


def straight_certificates(alpha, dec) -> dict:
    """Certificates that a straight decomposition dec = (a, b) is straight:
    a# (a b-ish) relations reduce to E acting as the identity on col(alpha),
    checked directly, plus rank agreement between a and alpha."""
    a, b = dec
    alpha, a_q = split(alpha), split(a)
    ga = _group_inverse(*a_q)
    return {
        "projector_fixes_alpha": _times_q(ga, _times_q(a_q, alpha)) == alpha,
        "rank_match": rank(a) == rank(alpha[0]),
        "recompose": _times_q(ga, split(b)) == alpha,
    }


show = fmt_mat  # an endomorphism as report JSON: rows of exact strings


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


def rand_rational_matrix(rng: random.Random, n: int) -> Mat:
    """Entries p / q row by row, p drawn from -9..9 and then q from the
    nonzero ones."""
    draws = iter(randints(rng, [(-9, 9), (0, 17)] * (n * n)))
    return _rows([Fraction(p, _NONZERO[q]) for p, q in zip(draws, draws)], n)


def rand_int_matrix(rng: random.Random, n: int) -> IntMat:
    """Random integer matrix; with probability 0.4, a product of thin
    factors so that rank-deficient cases are well represented."""
    if n > 1 and rng.random() < 0.4:
        k = rng.randint(1, n - 1)
        ab = randints(rng, [(-4, 4)] * (2 * n * k))  # n x k, then k x n
        return matmul_int(_rows(ab[:n * k], k), _rows(ab[n * k:], n))
    return _rows(randints(rng, [(-9, 9)] * (n * n)), n)


def _rows(entries: list, width: int) -> tuple[tuple, ...]:
    """The row-major ``entries`` as rows of ``width``."""
    return tuple(zip(*[iter(entries)] * width))
