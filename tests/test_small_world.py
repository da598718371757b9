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
idempotents, and the rank bridge between each ordered pair.

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
