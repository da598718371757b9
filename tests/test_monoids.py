import pytest

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
    bare = PresentedMonoid(name="free2-bare", elements=FREE2.elements, op=FREE2.op)
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
