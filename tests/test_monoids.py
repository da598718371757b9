import pytest
from hypothesis import given, settings, strategies as st

from indalg.orders import monoids as mo
from indalg.orders.monoids import FREE2, POSINT, PresentedMonoid


def test_posint_elements():
    assert mo._posint_elements(1) == [1, 2, 3]
    assert mo._posint_elements(2) == [1, 2, 3, 4, 6, 9]
    elems = mo._posint_elements(3)
    assert len(elems) == 10
    assert all(x >= 1 for x in elems)


def test_free2_elements_graded():
    assert mo._free2_elements(2) == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert len(mo._free2_elements(3)) == 15


def test_posint_ore_holds_both_sides():
    for side in ("left", "right"):
        result = mo.ore_check(POSINT, side, 3)
        assert result.status == "holds"
        assert result.witness is None
        assert result.pairs_checked == 100


def test_free2_ore_fails_with_letter_certificates():
    left = mo.ore_check(FREE2, "left", 3)
    assert left.status == "fails"
    assert left.witness["a"] == "a" and left.witness["b"] == "b"
    assert "ends in" in left.witness["certificate"]

    right = mo.ore_check(FREE2, "right", 3)
    assert right.status == "fails"
    assert "starts with" in right.witness["certificate"]


def test_ore_first_witness_deterministic():
    a = mo.ore_check(FREE2, "left", 2)
    b = mo.ore_check(FREE2, "left", 2)
    assert a == b


def test_ore_certificates_are_sound():
    # replay: a certified pair really has no bounded solution
    depth = 3
    elems = mo._free2_elements(depth)
    result = mo.ore_check(FREE2, "left", depth)
    wa, wb = result.witness["a"], result.witness["b"]
    assert not any(u + wa == v + wb for u in elems for v in elems)


def test_ore_inconclusive_without_certificates():
    # the same monoid stripped of its certificate can only report a bound hit
    bare = PresentedMonoid(name="free2-bare", elements=FREE2.elements, op=FREE2.op,
                           size=FREE2.size)
    result = mo.ore_check(bare, "left", 2)
    assert result.status == "inconclusive"
    assert result.witness["depth"] == 2
    assert set(result.witness) == {"a", "b", "depth"}


def test_ore_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mo.ore_check(POSINT, "sideways", 2)
    with pytest.raises(ValueError):
        mo.ore_check(POSINT, "left", 0)


def test_result_dict_shapes():
    r = mo.ore_check(POSINT, "left", 2).as_dict()
    assert r == {"status": "holds", "witness": None, "pairs_checked": 36}


def test_size_counts_the_elements():
    for monoid in (POSINT, FREE2):
        for depth in range(9):
            assert monoid.size(depth) == len(monoid.elements(depth))


def test_ore_rejects_depths_over_the_element_cap():
    assert FREE2.size(7) <= mo.MAX_ELEMENTS < FREE2.size(8)
    assert POSINT.size(21) <= mo.MAX_ELEMENTS < POSINT.size(22)
    for monoid, depth in ((FREE2, 8), (POSINT, 22), (FREE2, 10**20), (POSINT, 10**20)):
        with pytest.raises(ValueError, match="elements"):
            mo.ore_check(monoid, "left", depth)
    # the largest accepted depths still run
    assert mo.ore_check(FREE2, "right", 7).status == "fails"
    assert mo.ore_check(POSINT, "left", 21).status == "holds"


# --- property test against the four-deep search -------------------------------


def _ore_oracle(monoid, side, depth):
    """The search over u, v for every pair (a, b), as ``ore_check`` ran it
    before the set-based version, kept as the oracle."""
    elems = monoid.elements(depth)
    fail = None
    stuck = None
    pairs = 0
    for a in elems:
        for b in elems:
            pairs += 1
            reason = monoid.certificate(side, a, b)
            if reason is not None:
                if fail is None:
                    fail = {
                        "a": str(a),
                        "b": str(b),
                        "certificate": reason,
                    }
                continue
            found = None
            for u in elems:
                for v in elems:
                    if side == "left":
                        ok = monoid.op(u, a) == monoid.op(v, b)
                    else:
                        ok = monoid.op(a, u) == monoid.op(b, v)
                    if ok:
                        found = (u, v)
                        break
                if found:
                    break
            if found is None and stuck is None:
                stuck = {"a": str(a), "b": str(b), "depth": depth}
    if fail is not None:
        return mo.OreResult("fails", fail, pairs)
    if stuck is not None:
        return mo.OreResult("inconclusive", stuck, pairs)
    return mo.OreResult("holds", None, pairs)


def _transformations(gens) -> PresentedMonoid:
    """The monoid of maps of range(n) generated by ``gens`` under
    composition (x then y), its elements listed breadth first by word
    length: no certificates, and common multiples that may lie beyond the
    search bound on one side and not the other."""

    def elements(depth):
        out = layer = [tuple(range(len(gens[0])))]
        for _ in range(depth):
            layer = dict.fromkeys(tuple(g[i] for i in x) for x in layer for g in gens)
            layer = [y for y in layer if y not in out]
            out = out + layer
        return out

    return PresentedMonoid(
        name=f"maps{gens}",
        elements=elements,
        op=lambda x, y: tuple(y[i] for i in x),
        size=lambda depth: len(elements(depth)),
    )


FREE2_BARE = PresentedMonoid(name="free2-bare", elements=FREE2.elements,
                             op=FREE2.op, size=FREE2.size)
monoids = st.one_of(
    st.sampled_from([POSINT, FREE2, FREE2_BARE]),
    st.integers(2, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, n - 1)] * n), min_size=1, max_size=2,
    )).map(_transformations),
)


@settings(max_examples=150)
@given(monoids, st.sampled_from(["left", "right"]), st.integers(1, 4))
def test_ore_check_matches_the_four_deep_search(monoid, side, depth):
    assert mo.ore_check(monoid, side, depth) == _ore_oracle(monoid, side, depth)
