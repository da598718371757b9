"""Green's starred orders checked on every pair of a small world.

The suites sample their elements; here each order is compared with its
independent route on every ordered pair of a small, fully enumerated set,
built by ``itertools.product`` and drawn by no sampler of the package:

* the 81 integer 2x2 matrices with entries in {-1, 0, 1}, where
  ``matrix.greens_leq`` must agree with ``suite.matrix_route``;
* the 36 flavor-A act endomorphisms of rank 2 with shifts in {-1, 0, 1},
  where ``acts.greens_leq`` must agree with ``suite.act_route``.

Over the same 36 act endomorphisms, the act suite's (Eiii) and (Ei) checks
hold on every element and every pair: each alpha's Lstar and Rstar
idempotents, and the rank bridge between each ordered pair.  The suite's
other act checks run on flavor-B worlds, each case found by filtering the
world and none drawn:

* (Eii) on the 216 act endomorphisms of rank 3 with shifts in {0, 1}, over
  every pair that meets the gamma construction's hypothesis;
* (Evi)(l), (Evi)(r), (Evii)(r) and (Gii) on the 36 of rank 2 with shifts in
  {0, 1, 2}, around every square-cancellable element (at rank 2, each one),
  over every pair below it, above it or in its kernel/image class.  At rank 3
  the same slice runs far longer, so it stays out of tier-1.

Each test also pins how many instances met its property or its hypothesis
(comparable pairs, rank-equal pairs), so that it cannot pass on a world
where the property never holds (or always does).
"""

from itertools import product

import pytest

from indalg.orders import acts, matrix, suite
from indalg.orders.acts import compose, kernel_key, target_set

ENTRIES = (-1, 0, 1)
MATRICES = [((a, b), (c, d)) for a, b, c, d in product(ENTRIES, repeat=4)]
ACTS = [acts.act_endo("A", shifts, targets)
        for shifts in product(ENTRIES, repeat=2)
        for targets in product((1, 2), repeat=2)]


def flavor_b_world(n: int, shifts: tuple[int, ...]) -> list[acts.ActEndo]:
    """Every flavor-B act endomorphism of rank n with shifts drawn from shifts."""
    return [acts.act_endo("B", s, targets)
            for s in product(shifts, repeat=n)
            for targets in product(range(1, n + 1), repeat=n)]


RANK_THREE = flavor_b_world(3, (0, 1))
RANK_TWO = flavor_b_world(2, (0, 1, 2))


def comparable_pairs(world, leq, route, side) -> int:
    """The number of ordered pairs (a, b) of world with a <= b, after
    checking that leq and route agree on every pair."""
    count = 0
    for a, b in product(world, repeat=2):
        got = leq(side, a, b)
        assert got == route(side, a, b), (side, a, b)
        count += got
    return count


@pytest.mark.parametrize("side,comparable", [("Rstar", 4177), ("Lstar", 4177)])
def test_matrix_starred_orders_match_their_route_on_every_pair(side, comparable):
    world = [(rows, 1) for rows in MATRICES]
    assert len(world) == 81
    assert comparable_pairs(world, matrix.greens_leq, suite.matrix_route,
                            side) == comparable


@pytest.mark.parametrize("side,comparable", [("Rstar", 724), ("Lstar", 810)])
def test_act_starred_orders_match_their_route_on_every_pair(side, comparable):
    assert len(ACTS) == 36
    assert comparable_pairs(ACTS, acts.greens_leq, suite.act_route,
                            side) == comparable


@pytest.mark.parametrize("idempotent,invariant", [
    (acts.lstar_idempotent, target_set),
    (acts.rstar_idempotent, kernel_key),
])
def test_eiii_every_act_has_its_starred_idempotent(idempotent, invariant):
    # (Eiii): the idempotent is one, keeps alpha's target set (Lstar) or
    # kernel (Rstar), and is square-cancellable
    def holds(alpha) -> bool:
        eps = idempotent(alpha)
        return (compose(eps, eps) == eps and invariant(eps) == invariant(alpha)
                and acts.is_square_cancellable(eps))

    assert sum(map(holds, ACTS)) == 36


def test_ei_a_rank_bridge_exists_both_ways_exactly_when_the_ranks_agree():
    rank_equal = 0
    for alpha, beta in product(ACTS, repeat=2):
        same = acts.act_rank(alpha) == acts.act_rank(beta)
        assert suite._has_rank_bridge(image_of=alpha, kernel_of=beta) == same
        assert suite._has_rank_bridge(image_of=beta, kernel_of=alpha) == same
        rank_equal += same
    assert rank_equal == 648


def test_eii_each_gamma_reaches_alpha_on_every_comparable_pair():
    # (Eii)(l): gamma_left(a, b), then b, has a's target set; (Eii)(r): b,
    # then gamma_right(a, b), has a's kernel
    assert len(RANK_THREE) == 216
    left = right = 0
    for a, b in product(RANK_THREE, repeat=2):
        if target_set(a) <= target_set(b):
            assert target_set(compose(acts.gamma_left(a, b), b)) == target_set(a), (a, b)
            left += 1
        if acts.kernel_leq(a, b):
            assert kernel_key(compose(b, acts.gamma_right(a, b))) == kernel_key(a), (a, b)
            right += 1
    assert (left, right) == (19776, 14346)


def square_cancellable() -> list[acts.ActEndo]:
    """The square-cancellable elements of the rank-2 world: all 36 of them,
    since at rank 2 every act endomorphism is square-cancellable (its square
    keeps its kernel and its pure-closure image)."""
    found = [alpha for alpha in RANK_TWO if acts.is_square_cancellable(alpha)]
    assert len(found) == 36
    return found


def test_evi_l_left_cancellation_below_every_square_cancellable_element():
    cases = 0
    for sq in square_cancellable():
        below = [b for b in RANK_TWO if target_set(b) <= target_set(sq)]
        for b1, b2 in product(below, repeat=2):
            assert (compose(b1, sq) == compose(b2, sq)) == (b1 == b2), (sq, b1, b2)
            cases += 1
    assert cases == 24786


def test_evi_r_and_evii_r_cancellation_above_every_square_cancellable_element():
    # (Evi)(r) on elements, (Evii)(r) on kernels, over every pair whose
    # kernels contain sq's; (Evii)(r)'s hypothesis holds on 7,560 of them
    cases = nonvacuous = 0
    for sq in square_cancellable():
        above = [c for c in RANK_TWO if acts.kernel_leq(c, sq)]
        for c1, c2 in product(above, repeat=2):
            assert (compose(sq, c1) == compose(sq, c2)) == (c1 == c2), (sq, c1, c2)
            hyp = kernel_key(compose(sq, c1)) == kernel_key(compose(sq, c2))
            assert not hyp or kernel_key(c1) == kernel_key(c2), (sq, c1, c2)
            cases += 1
            nonvacuous += hyp
    assert (cases, nonvacuous) == (23688, 7560)


def test_gii_left_ore_solutions_stay_in_every_kernel_image_class():
    cases = 0
    for sq in square_cancellable():
        cls = acts.hstar_class(sq)
        members = [x for x in RANK_TWO if acts.hstar_class(x) == cls]
        for a, b in product(members, repeat=2):
            u, v = acts.left_ore_solve(sq, a, b)
            assert compose(u, a) == compose(v, b), (sq, a, b)
            assert acts.hstar_class(u) == cls == acts.hstar_class(v), (sq, a, b)
            cases += 1
    assert cases == 5922
