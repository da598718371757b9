"""Matrix backend: endomorphism monoids of rational vector spaces and of
free abelian groups.

An endomorphism of Q^n is an n x n rational matrix acting on column
vectors; an endomorphism of Z^n is the integer case.  The order- and
divisibility-theoretic predicates below are all phrased through kernels
and column spaces:

* ``greens_leq(side="R")``  -- kernel containment (null(b) <= null(a)),
  equivalent to solvability of a = g @ b;
* ``greens_leq(side="L")``  -- column-space containment, equivalent to
  solvability of a = b @ g;
* the starred variants apply to integer matrices and are computed with
  integer lattice arithmetic (Hermite forms and saturations) so that they
  are independent of the rational route used for the unstarred ones.

Composition convention: "apply a, then b" is the matrix product b @ a.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ..report import fmt_mat
from . import linalg
from .linalg import (
    Mat,
    IntMat,
    apply_mat,
    col_space_leq,
    identity,
    inverse,
    lattice_leq,
    lcm_denoms,
    mat_q,
    mat_z,
    matmul,
    nullspace,
    rank,
    right_kernel_int,
    rref,
    saturation,
    scalar_mul,
    shape,
    solve_left,
    solve_right,
    transpose,
    zeros,
)


class NoGroupInverse(ValueError):
    pass


class PreconditionViolated(ValueError):
    pass


def greens_leq(side: str, a, b) -> bool:
    """Green's order comparisons for matrix endomorphisms.

    R and L compare rational matrices; Rstar and Lstar compare integer
    matrices through lattice arithmetic.
    """
    if side == "R":
        a, b = mat_q(a), mat_q(b)
        return all(
            all(x == 0 for x in apply_mat(a, v)) for v in nullspace(b)
        )
    if side == "L":
        return col_space_leq(mat_q(a), mat_q(b))
    if side == "Rstar":
        a, b = mat_z(a), mat_z(b)
        kb = right_kernel_int(b)
        return all(all(x == 0 for x in apply_mat(a, v)) for v in kb)
    if side == "Lstar":
        a, b = mat_z(a), mat_z(b)
        return lattice_leq(pc_closure_cols(a), pc_closure_cols(b))
    raise ValueError(f"unknown side {side!r}")


def pc_closure_cols(a: IntMat) -> IntMat:
    """Canonical basis of the pure closure of the column lattice of a."""
    return saturation(transpose(a), len(a))


# --- divisibility criteria (the second route to R and L) --------------------


def divides_left(a, b) -> Mat | None:
    """g with a = g @ b if one exists (a is a left multiple of b)."""
    return solve_left(mat_q(b), mat_q(a))


def divides_right(a, b) -> Mat | None:
    """g with a = b @ g if one exists (a is a right multiple of b)."""
    return solve_right(mat_q(b), mat_q(a))


# --- group inverses ---------------------------------------------------------


def group_inverse(s) -> Mat:
    """The group inverse of s, when s lies in a subgroup of the
    multiplicative monoid of square rational matrices.

    By full-rank factorisation (Cline, SIAM J. Numer. Anal. 1968): s = b c
    with b the pivot columns of s (n x r) and c the nonzero rows of its
    RREF (r x n).  s has a group inverse iff the r x r matrix c b is
    invertible (equivalently rank(s) == rank(s @ s)), and then
    s# = b (c b)^-2 c.  Raises NoGroupInverse otherwise.
    """
    s = mat_q(s)
    n, m = shape(s)
    if n != m:
        raise ValueError("not square")
    rr, pivots = rref(s)
    r = len(pivots)
    if r == 0:
        return zeros(n, n)
    b = tuple(tuple(row[c] for c in pivots) for row in s)
    c = rr[:r]
    w = solve_right(matmul(c, b), identity(r))
    if w is None:
        raise NoGroupInverse("rank(s) != rank(s^2)")
    return matmul(matmul(b, matmul(w, w)), c)


# --- decompositions ---------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    a: Mat
    b: Mat

    def as_dict(self):
        return {"a": fmt_mat(self.a), "b": fmt_mat(self.b)}


def left_decompose(alpha) -> Decomposition:
    """alpha = a# . b with integer parts, taking a = d I and b = d alpha
    for d the lcm of the denominators.  (d I)# = (1/d) I, so a# b = alpha."""
    alpha = mat_q(alpha)
    n, _ = shape(alpha)
    d = lcm_denoms(alpha)
    a = scalar_mul(d, identity(n))
    b = scalar_mul(d, alpha)
    return Decomposition(a=a, b=b)


def right_decompose(alpha) -> Decomposition:
    """alpha = a . b# with integer parts, taking a = d alpha and b = d I."""
    alpha = mat_q(alpha)
    n, _ = shape(alpha)
    d = lcm_denoms(alpha)
    return Decomposition(a=scalar_mul(d, alpha), b=scalar_mul(d, identity(n)))


def straight_left_decompose(alpha) -> Decomposition:
    """alpha = a# . b with a, b integer and col(a) = col(alpha^T)-adapted
    projector:  E projects onto the row space of alpha along a standard
    complement, so E @ alpha = alpha; scaling E and alpha by a common
    denominator-clearing factor gives an integer pair with a# b = alpha.
    """
    alpha = mat_q(alpha)
    n, _ = shape(alpha)
    rr, pivots = rref(transpose(alpha))
    cols = [tuple(rr[i]) for i in range(len(pivots))]
    pivset = set(pivots)
    for j in range(n):
        if j not in pivset:
            cols.append(tuple(Fraction(1) if i == j else Fraction(0) for i in range(n)))
    p = transpose(tuple(cols))
    r = len(pivots)
    diag = tuple(
        tuple(Fraction(1) if (i == j and i < r) else Fraction(0) for j in range(n))
        for i in range(n)
    )
    e = matmul(matmul(p, diag), inverse(p))
    m = lcm(lcm_denoms(e), lcm_denoms(alpha))
    return Decomposition(a=scalar_mul(m, e), b=scalar_mul(m, alpha))


def verify_decomposition(alpha, dec: Decomposition, mode: str) -> bool:
    """Recompose and compare exactly.  ``mode`` is 'left', 'right' or
    'straight'; left/straight recompose as a# @ b, right as a @ b#."""
    alpha = mat_q(alpha)
    if not linalg.is_integer_matrix(dec.a) or not linalg.is_integer_matrix(dec.b):
        return False
    if mode in ("left", "straight"):
        ga = group_inverse(dec.a)
        return matmul(ga, dec.b) == alpha
    if mode == "right":
        gb = group_inverse(dec.b)
        return matmul(dec.a, gb) == alpha
    raise ValueError(f"unknown mode {mode!r}")


def straight_certificates(alpha, dec: Decomposition) -> dict:
    """Certificates that a straight decomposition is straight:
    a# (a b-ish) relations reduce to E acting as the identity on col(alpha),
    checked directly, plus rank agreement between a and alpha."""
    alpha = mat_q(alpha)
    ga = group_inverse(dec.a)
    return {
        "projector_fixes_alpha": matmul(ga, matmul(dec.a, alpha)) == alpha,
        "rank_match": rank(dec.a) == rank(alpha),
        "recompose": matmul(ga, dec.b) == alpha,
    }


# --- quotient elements ------------------------------------------------------


@dataclass(frozen=True)
class QuotElem:
    """Canonical fraction t \\ v over the positive integers acting on Z^n
    by scalar multiplication: the pair (t, v) reduced by gcd(t, content(v))."""

    t: int
    v: tuple[int, ...]

    def as_dict(self):
        return {"t": self.t, "v": list(self.v)}


def quot_elem(t: int, v) -> QuotElem:
    if t <= 0:
        raise ValueError("denominator tag must be positive")
    v = tuple(int(x) for x in v)
    g = gcd(t, *v)
    if g > 1:
        t //= g
        v = tuple(x // g for x in v)
    return QuotElem(t, v)


def embed(v) -> QuotElem:
    return quot_elem(1, v)


def quotient_eq(p: QuotElem, q: QuotElem) -> bool:
    """Fraction equality through an explicit pair of multipliers:
    (t1, v1) ~ (t2, v2) iff x t1 = y t2 and x v1 = y v2 for the witnesses
    x = t2/g, y = t1/g with g = gcd(t1, t2).  Vectors of different
    lengths are not comparable."""
    if len(p.v) != len(q.v):
        raise ValueError(f"vector lengths differ: {len(p.v)} and {len(q.v)}")
    g = gcd(p.t, q.t)
    x, y = q.t // g, p.t // g
    if x * p.t != y * q.t:
        return False
    return all(x * a == y * b for a, b in zip(p.v, q.v))


# --- seeded sampling --------------------------------------------------------


def rand_rational_matrix(rng: random.Random, n: int) -> Mat:
    nonzero = [d for d in range(-9, 10) if d != 0]
    return tuple(
        tuple(Fraction(rng.randint(-9, 9), rng.choice(nonzero)) for _ in range(n))
        for _ in range(n)
    )


def rand_int_matrix(rng: random.Random, n: int, low_rank_bias: float = 0.4) -> IntMat:
    """Random integer matrix; with the given probability, a product of
    thin factors so that rank-deficient cases are well represented."""
    if n > 1 and rng.random() < low_rank_bias:
        k = rng.randint(1, n - 1)
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        return mat_z(matmul(a, b))
    return tuple(
        tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
    )
