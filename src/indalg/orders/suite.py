"""Sampled verification suites for the order-theoretic structure of the
two endomorphism backends.

Every check compares an exact structural predicate against an independent
route (an element-level definition, an explicit construction, or a
recomposition), sample by sample.  One ``random.Random(seed)`` stream feeds
the samples in order, so a report is deterministic for a fixed seed.

The matrix suite works on integer rows throughout: its samplers return
``(rows, d)`` and it builds no ``Fraction``; ``matrix.show`` writes a
witness only when its sample fails.

A check verifies, a construction does not.  Each property is verified once,
by the check that records it: the constructions of ``acts`` and the
samplers here return what they build without re-checking it, so a faulty
one ends as a failed check with its witness, not as an exception, and
every verdict is the same under ``python -O``.
"""

from __future__ import annotations

import random

from . import acts, matrix, randints
from ..report import Check
from .linalg import lowest, matmul_int, scale_int, solve_int, transpose
from .acts import (
    ActEndo,
    compose,
    first_preimages,
    gamma_left,
    gamma_right,
    hstar_class,
    is_square_cancellable,
    kernel_key,
    left_ore_solve,
    lift_endo,
    lstar_idempotent,
    rand_act_endo,
    rand_hstar_element,
    rand_square_cancellable,
    rstar_idempotent,
    target_set,
    with_kernel,
)


# --- matrix backend -----------------------------------------------------------


def matrix_route(side: str, a, b) -> bool:
    """a <= b, for a and b given as ``(rows, d)``, by a route independent
    of ``matrix.greens_leq(side, a, b)``: the solvability of a = g @ b for
    R and of a = b @ g for L, one elimination of a stacked matrix of rows
    where ``greens_leq`` reads a kernel; for Rstar and Lstar, the unstarred
    order, which reads the integer matrices as rational ones."""
    if side == "R":
        return solve_int(transpose(b[0]), transpose(a[0])) is not None
    if side == "L":
        return solve_int(b[0], a[0]) is not None
    return matrix.greens_leq(side[0], a, b)


def run_matrix_suite(n: int, seed: int, samples: int) -> list[Check]:
    rng = random.Random(seed)
    fs_r = Check.sampled("fs_rstar_vs_r")
    fs_l = Check.sampled("fs_lstar_vs_l")
    eiir = Check.sampled("eii_r_matrix_informational")

    for _ in range(samples):
        a = matrix.rand_int_matrix(rng, n)
        b = matrix.rand_int_matrix(rng, n)
        for check, side in ((fs_r, "Rstar"), (fs_l, "Lstar")):
            star = matrix.greens_leq(side, a, b)
            plain = matrix_route(side, a, b)
            check.record(star == plain, lambda: {"a": matrix.show(a),
                                                 "b": matrix.show(b),
                                                 side: star, side[0]: plain})

        # informational: on a comparable pair alpha = Gamma b (rationally),
        # clearing denominators produces an integer witness gamma with
        # gamma b = m alpha, i.e. the kernel-side divisibility is realized
        # inside the integer monoid up to a positive scalar unit of the
        # overmonoid.  In integers: alpha = g_b / dg, gamma = x^T / (d dg)
        # for solve_int's (x, d) solves b^T gamma^T = alpha^T, and
        # gamma_int b = m alpha reads dg (gamma_int b) = m g_b.
        g, dg = matrix.rand_rational_matrix(rng, n)
        b_rows = b[0]
        g_b = matmul_int(g, b_rows)
        witness = lambda: {"alpha": matrix.show((g_b, dg)), "b": matrix.show(b)}
        sol = solve_int(transpose(b_rows), transpose(g_b))
        if sol is None:
            eiir.record(False, witness)
            continue
        x, d = sol
        # gamma in lowest terms is gam_int / m: m is the lcm of its denominators
        gam_int, m = lowest(transpose(x), d * dg)
        eiir.record(scale_int(dg, matmul_int(gam_int, b_rows)) == scale_int(m, g_b),
                    witness)

    return [fs_r, fs_l, eiir]


# --- act backend ----------------------------------------------------------------


def window_kernel_leq(a: ActEndo, b: ActEndo) -> bool:
    """Element-level route for ker(b) <= ker(a): whenever two elements of
    the overmonoid collide under b, they collide under a.  Translation
    commutes with both lifted maps, and each pair b collides translates some
    (0, i), (s_i - s_j, j) for b's shifts s: those n^2 pairs decide it."""
    la, lb = lift_endo(a), lift_endo(b)
    for i in range(b.n):
        for j in range(b.n):
            x, y = (0, i), (b.shifts[i] - b.shifts[j], j)
            if lb(x) == lb(y) and la(x) != la(y):
                return False
    return True


def construct_image_gamma(a: ActEndo, b: ActEndo) -> ActEndo | None:
    """Element-level route for the L order in the overmonoid: an explicit
    gamma with gamma-then-b equal to a, or None when b misses one of a's
    targets."""
    hit = first_preimages(b)
    shifts, targets = [], []
    for i in range(a.n):
        j = hit.get(a.targets[i])
        if j is None:
            return None
        shifts.append(a.shifts[i] - b.shifts[j])
        targets.append(j)
    return ActEndo("A", tuple(shifts), tuple(targets))


def act_route(side: str, a: ActEndo, b: ActEndo) -> bool:
    """a <= b by an element-level route independent of
    ``acts.greens_leq(side, a, b)``: kernels compared on a window for R and
    Rstar; for L and Lstar, an explicit gamma whose composite with b is a
    in the overmonoid."""
    if side in ("R", "Rstar"):
        return window_kernel_leq(a, b)
    gamma = construct_image_gamma(a, b)
    return gamma is not None and compose(gamma, lift_endo(b)) == lift_endo(a)


def _has_rank_bridge(image_of: ActEndo, kernel_of: ActEndo) -> bool:
    """Whether a bridge exists: an endomorphism with the pure-closure image
    of ``image_of`` and the kernel of ``kernel_of``.  One is built when the
    ranks agree, and counts only if it has both."""
    if acts.act_rank(image_of) != acts.act_rank(kernel_of):
        return False
    hit = sorted(target_set(image_of))
    out = with_kernel(kernel_of, [0] * len(hit), hit)
    return (kernel_key(out) == kernel_key(kernel_of)
            and target_set(out) == target_set(image_of))


def _rand_lstar_below(rng: random.Random, beta: ActEndo) -> ActEndo:
    pool = sorted(target_set(beta))
    n = beta.n
    draws = randints(rng, [(0, 5)] * n + [(0, len(pool) - 1)] * n)
    return ActEndo("B", tuple(draws[:n]), tuple([pool[i] for i in draws[n:]]))


def _rand_kernel_above(rng: random.Random, alpha: ActEndo) -> ActEndo:
    """Random beta with ker(alpha) <= ker(beta): constant target and
    coherent shifts on each merge class of alpha, classes allowed to
    collapse further.  Each class draws its base, then its target."""
    draws = randints(rng, [(0, 4), (0, alpha.n - 1)] * acts.act_rank(alpha))
    return with_kernel(alpha, draws[::2], draws[1::2])


def _kernel_preserving_twin(rng: random.Random, beta: ActEndo) -> ActEndo:
    """An endomorphism with exactly beta's kernel but shuffled targets and
    padded shifts."""
    pool = rng.sample(range(beta.n), acts.act_rank(beta))
    return with_kernel(beta, randints(rng, [(0, 4)] * len(pool)), pool)


def _witness(**parts):
    """A witness built only when its sample fails: act endomorphisms as
    dicts, other values as they are."""
    return lambda: {k: v.as_dict() if isinstance(v, ActEndo) else v
                    for k, v in parts.items()}


def run_act_suite(n: int, seed: int, samples: int) -> list[Check]:
    rng = random.Random(seed)

    fs_r = Check.sampled("fs_rstar_vs_r")
    fs_l = Check.sampled("fs_lstar_vs_l")
    ei = Check.sampled("ei_commuting_compositions")
    eii_l = Check.sampled("eii_l_gamma_left")
    eii_r = Check.sampled("eii_r_gamma_right")
    eiii_l = Check.sampled("eiii_l_idempotent")
    eiii_r = Check.sampled("eiii_r_idempotent")
    evi_l = Check.sampled("evi_l_left_cancellation")
    evi_r = Check.sampled("evi_r_right_cancellation")
    evii_r = Check.sampled("evii_r_kernel_cancellation")
    gii = Check.sampled("gii_hstar_left_ore")

    for k in range(samples):
        alpha = rand_act_endo(rng, n)
        beta = rand_act_endo(rng, n)

        # full stratification: structural predicates vs element-level routes
        for check, side in ((fs_r, "Rstar"), (fs_l, "Lstar")):
            structural = acts.greens_leq(side, alpha, beta)
            elementwise = act_route(side, alpha, beta)
            check.record(structural == elementwise,
                         _witness(alpha=alpha, beta=beta,
                                  **{side: structural, side[0]: elementwise}))

        # (Ei): both relation compositions hold exactly when a bridge
        # element exists, which happens iff the ranks agree
        lr = _has_rank_bridge(image_of=alpha, kernel_of=beta)
        rl = _has_rank_bridge(image_of=beta, kernel_of=alpha)
        ranks_equal = acts.act_rank(alpha) == acts.act_rank(beta)
        ei.record(
            lr == ranks_equal and rl == ranks_equal,
            _witness(alpha=alpha, beta=beta, ranks_equal=ranks_equal),
        )

        # (Eii)(l): construct a comparable pair and verify gamma_left
        below = _rand_lstar_below(rng, beta)
        g = gamma_left(below, beta)
        eii_l.record(
            target_set(compose(g, beta)) == target_set(below),
            _witness(alpha=below, beta=beta, gamma=g),
        )

        # (Eii)(r): alpha' = beta-then-theta is kernel-comparable; verify
        # gamma_right reproduces the kernel exactly
        theta = rand_act_endo(rng, n)
        above = compose(beta, theta)
        g = gamma_right(above, beta)
        eii_r.record(
            kernel_key(compose(beta, g)) == kernel_key(above),
            _witness(alpha=above, beta=beta, gamma=g),
        )

        # (Eiii): idempotents in the same starred classes
        eps = lstar_idempotent(alpha)
        eiii_l.record(
            compose(eps, eps) == eps
            and target_set(eps) == target_set(alpha)
            and is_square_cancellable(eps),
            _witness(alpha=alpha, eps=eps),
        )
        eps = rstar_idempotent(alpha)
        eiii_r.record(
            compose(eps, eps) == eps
            and kernel_key(eps) == kernel_key(alpha)
            and is_square_cancellable(eps),
            _witness(alpha=alpha, eps=eps),
        )

        # cancellation conditions around a square-cancellable element
        sq = rand_square_cancellable(rng, n)
        b1 = _rand_lstar_below(rng, sq)
        b2 = _rand_lstar_below(rng, sq) if k % 3 else b1
        lhs_equal = compose(b1, sq) == compose(b2, sq)
        evi_l.record(
            lhs_equal == (b1 == b2),
            _witness(alpha=sq, beta=b1, gamma=b2),
        )

        c1 = _rand_kernel_above(rng, sq)
        c2 = _rand_kernel_above(rng, sq) if k % 3 else c1
        lhs_equal = compose(sq, c1) == compose(sq, c2)
        evi_r.record(
            lhs_equal == (c1 == c2),
            _witness(alpha=sq, beta=c1, gamma=c2),
        )

        # (Evii)(r): kernel-level cancellation, with kernel-preserving
        # twins mixed in so the hypothesis side is exercised
        c1 = _rand_kernel_above(rng, sq)
        c2 = _kernel_preserving_twin(rng, c1) if k % 2 else _rand_kernel_above(rng, sq)
        hyp = kernel_key(compose(sq, c1)) == kernel_key(compose(sq, c2))
        concl = kernel_key(c1) == kernel_key(c2)
        evii_r.record(
            (not hyp) or concl,
            _witness(alpha=sq, beta=c1, gamma=c2),
        )
        if hyp:
            evii_r.details["nonvacuous"] = evii_r.details.get("nonvacuous", 0) + 1

        # (Gii): left Ore inside the kernel/image class of sq
        sq_class = hstar_class(sq)
        a_el = rand_hstar_element(rng, sq)
        b_el = rand_hstar_element(rng, sq)
        u, v = left_ore_solve(sq, a_el, b_el)
        gii.record(
            compose(u, a_el) == compose(v, b_el)
            and hstar_class(u) == sq_class
            and hstar_class(v) == sq_class,
            _witness(alpha=sq, a=a_el, b=b_el, u=u, v=v),
        )

    if "nonvacuous" not in evii_r.details:  # the hypothesis never held
        evii_r.details["nonvacuous"] = 0
        evii_r.outcome = "inconclusive"
    return [fs_r, fs_l, ei, eii_l, eii_r, eiii_l, eiii_r, evi_l, evi_r,
            evii_r, gii]
