"""Green's starred orders checked on every pair of a small world.

The suites sample their elements; here each order is compared with its
independent route on every ordered pair of a small, fully enumerated set,
built by ``itertools.product`` and drawn by no sampler of the package:

* the 81 integer 2x2 matrices with entries in {-1, 0, 1}, where
  ``matrix.greens_leq`` must agree with ``suite.matrix_route``;
* the 36 flavor-A act endomorphisms of rank 2 with shifts in {-1, 0, 1},
  where ``acts.greens_leq`` must agree with ``suite.act_route``.

Each test also pins how many pairs are comparable, so that it cannot pass
on a world where the order never holds (or always does).
"""

from itertools import product

import pytest

from indalg.orders import acts, matrix, suite

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
