"""Sampled verification suites for the order-theoretic structure of the
two endomorphism backends.

Every check compares an exact structural predicate against an independent
route (an element-level definition, an explicit construction, or a
recomposition), sample by sample.  Samples are independent and the merge
is keyed by sample index, so reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from math import gcd

from . import acts, matrix
from ..report import Check, fmt_mat
from .linalg import join, matmul_int, scale_int, solvable, solve_int, split, transpose
from .matrix import randints
from .acts import (
    ActEndo,
    compose,
    first_preimages,
    gamma_left,
    gamma_right,
    is_square_cancellable,
    kernel_key,
    kernel_leq,
    left_ore_solve,
    lift_endo,
    lstar_idempotent,
    pc_image,
    rand_act_endo,
    rand_hstar_element,
    rand_square_cancellable,
    rstar_idempotent,
    target_set,
    with_kernel,
)


# ranks each backend's suite samples from
RANKS = {"matrix": range(1, 5), "act": range(1, 4)}


# --- matrix backend -----------------------------------------------------------


def matrix_route(side: str, a, b) -> bool:
    """a <= b by a route independent of ``matrix.greens_leq(side, a, b)``:
    the solvability of a = g @ b for R and of a = b @ g for L, one
    elimination of a stacked matrix where ``greens_leq`` reads a kernel;
    for Rstar and Lstar, the unstarred order, which reads the integer
    matrices as rational ones."""
    if side == "R":
        return solvable(transpose(b), transpose(a))
    if side == "L":
        return solvable(b, a)
    return matrix.greens_leq(side[0], a, b)


def run_matrix_suite(n: int, seed: int, samples: int) -> list[Check]:
    if n not in RANKS["matrix"]:
        raise ValueError("matrix suite supports ranks 1..4")
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
            check.record(star == plain, lambda: {"a": fmt_mat(a), "b": fmt_mat(b),
                                                 side: star, side[0]: plain})

        # informational: on a comparable pair alpha = Gamma b (rationally),
        # clearing denominators produces an integer witness gamma with
        # gamma b = m alpha, i.e. the kernel-side divisibility is realized
        # inside the integer monoid up to a positive scalar unit of the
        # overmonoid.  In integers: alpha = g_b / dg, gamma = x^T / den
        # solves b^T gamma^T = alpha^T, and gamma_int b = m alpha reads
        # dg (gamma_int b) = m g_b.
        g, dg = split(matrix.rand_rational_matrix(rng, n))
        g_b = matmul_int(g, b)
        witness = lambda: {"alpha": fmt_mat(join(g_b, dg)), "b": fmt_mat(b)}
        sol = solve_int(transpose(b), transpose(g_b))
        if sol is None:
            eiir.record(False, witness)
            continue
        x, d = sol
        den = d * dg  # gamma = x^T / den
        # m is the lcm of gamma's denominators
        m = den // gcd(den, *(y for row in x for y in row))
        gam_den = scale_int(m, transpose(x))  # den * (m gamma)
        gam_int = tuple(tuple(y // den for y in row) for row in gam_den)
        ok = (
            all(y % den == 0 for row in gam_den for y in row)
            and m >= 1
            and scale_int(dg, matmul_int(gam_int, b)) == scale_int(m, g_b)
        )
        eiir.record(ok, witness)

    return [fs_r, fs_l, eiir]


# --- act backend ----------------------------------------------------------------


def window_kernel_leq(a: ActEndo, b: ActEndo) -> bool:
    """Element-level route for ker(b) <= ker(a): on a window of the
    overmonoid large enough to realize every merge offset, whenever two
    elements collide under b they collide under a."""
    la, lb = lift_endo(a), lift_endo(b)
    w = 2 + max([abs(s) for s in a.shifts + b.shifts] or [0])
    image_under_a = {}  # lb(x) -> la(x) for the first x seen with that image
    for m in range(-w, w + 1):
        for i in range(a.n):
            x = (m, i)
            ax = la(x)
            if image_under_a.setdefault(lb(x), ax) != ax:
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


def _rank_bridge(image_of: ActEndo, kernel_of: ActEndo) -> ActEndo | None:
    """An endomorphism with the pure-closure image of ``image_of`` and the
    kernel of ``kernel_of``, when ranks agree; None otherwise."""
    if acts.act_rank(image_of) != acts.act_rank(kernel_of):
        return None
    hit = sorted(target_set(image_of))
    out = with_kernel(kernel_of, [0] * len(hit), hit)
    assert kernel_key(out) == kernel_key(kernel_of)
    assert target_set(out) == target_set(image_of)
    return out


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
    beta = with_kernel(alpha, draws[::2], draws[1::2])
    assert kernel_leq(beta, alpha)
    return beta


def _kernel_preserving_twin(rng: random.Random, beta: ActEndo) -> ActEndo:
    """An endomorphism with exactly beta's kernel but shuffled targets and
    padded shifts."""
    pool = rng.sample(range(beta.n), acts.act_rank(beta))
    twin = with_kernel(beta, randints(rng, [(0, 4)] * len(pool)), pool)
    assert kernel_key(twin) == kernel_key(beta)
    return twin


def _witness(**parts):
    """A witness built only when its sample fails: act endomorphisms as
    dicts, other values as they are."""
    return lambda: {k: v.as_dict() if isinstance(v, ActEndo) else v
                    for k, v in parts.items()}


def run_act_suite(n: int, seed: int, samples: int) -> list[Check]:
    if n not in RANKS["act"]:
        raise ValueError("act suite supports ranks 1..3")
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
        lr = _rank_bridge(image_of=alpha, kernel_of=beta)
        rl = _rank_bridge(image_of=beta, kernel_of=alpha)
        ranks_equal = acts.act_rank(alpha) == acts.act_rank(beta)
        ei.record(
            (lr is not None) == ranks_equal and (rl is not None) == ranks_equal,
            _witness(alpha=alpha, beta=beta, ranks_equal=ranks_equal),
        )

        # (Eii)(l): construct a comparable pair and verify gamma_left
        below = _rand_lstar_below(rng, beta)
        g = gamma_left(below, beta)
        eii_l.record(
            pc_image(compose(g, beta)) == pc_image(below),
            _witness(alpha=below, beta=beta),
        )

        # (Eii)(r): alpha' = beta-then-theta is kernel-comparable; verify
        # gamma_right reproduces the kernel exactly
        theta = rand_act_endo(rng, n)
        above = compose(beta, theta)
        g = gamma_right(above, beta)
        eii_r.record(
            kernel_key(compose(beta, g)) == kernel_key(above),
            _witness(alpha=above, beta=beta),
        )

        # (Eiii): idempotents in the same starred classes
        eps = lstar_idempotent(alpha)
        eiii_l.record(
            compose(eps, eps) == eps
            and pc_image(eps) == pc_image(alpha)
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
        a_el = rand_hstar_element(rng, sq)
        b_el = rand_hstar_element(rng, sq)
        u, v = left_ore_solve(sq, a_el, b_el)
        sq_kernel, sq_image = kernel_key(sq), target_set(sq)
        gii.record(
            compose(u, a_el) == compose(v, b_el)
            and kernel_key(u) == sq_kernel
            and target_set(u) == sq_image
            and kernel_key(v) == sq_kernel
            and target_set(v) == sq_image,
            _witness(alpha=sq, a=a_el, b=b_el),
        )

    if "nonvacuous" not in evii_r.details:  # the hypothesis never held
        evii_r.details["nonvacuous"] = 0
        evii_r.outcome = "inconclusive"
    return [fs_r, fs_l, ei, eii_l, eii_r, eiii_l, eiii_r, evi_l, evi_r,
            evii_r, gii]


def run_suite(backend: str, n: int, seed: int, samples: int) -> list[Check]:
    if backend == "matrix":
        return run_matrix_suite(n, seed, samples)
    if backend == "act":
        return run_act_suite(n, seed, samples)
    raise ValueError(f"unknown backend {backend!r}")
