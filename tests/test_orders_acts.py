import json
import random

import pytest
from hypothesis import given, strategies as st

from indalg import cli
from indalg.orders import acts as ac
from indalg.orders import suite as su
from indalg.orders.acts import ActEndo, PreconditionViolated, act_endo


def identity(n, flavor="B"):
    return ActEndo(flavor, (0,) * n, tuple(range(n)))


def valid_endo(theta) -> bool:
    """The four refusals of ``act_endo``, read off a built record: a known
    flavor, as many targets as shifts, every target a generator, and no
    negative shift in flavor B.  Every construction must pass it."""
    n = theta.n
    return (theta.flavor in ("A", "B") and len(theta.targets) == n
            and all(0 <= t < n for t in theta.targets)
            and (theta.flavor == "A" or all(s >= 0 for s in theta.shifts)))


def test_act_endo_validation():
    with pytest.raises(ValueError, match="^unknown flavor 'C'$"):
        act_endo("C", (0,), (1,))
    with pytest.raises(ValueError, match="^shifts/targets length mismatch$"):
        act_endo("B", (0, 0), (1,))
    with pytest.raises(ValueError, match="^shifts/targets length mismatch$"):
        act_endo("A", (), (1,))
    for flavor in "AB":
        for targets in ((1, 0), (3, 1), (2, 3)):  # 0 and n + 1 name no generator
            with pytest.raises(ValueError, match="^target index out of range$"):
                act_endo(flavor, (0, 1), targets)
    with pytest.raises(ValueError, match="^flavor B requires nonnegative shifts$"):
        act_endo("B", (0, -1), (1, 2))
    assert act_endo("A", (0, -1), (1, 2)).shifts == (0, -1)  # overmonoid allows them
    assert act_endo("B", (0, 7), (2, 2)).targets == (1, 1)
    # rank 0: the empty endomorphism is valid and composes to itself
    for flavor in "AB":
        empty = act_endo(flavor, (), ())
        assert empty.n == 0 and ac.compose(empty, empty) == empty
        assert valid_endo(empty)
    assert ac.rand_act_endo(random.Random(0), 0) == ActEndo("B", (), ())


def test_valid_endo_refuses_what_act_endo_refuses():
    assert valid_endo(ActEndo("A", (0, -1), (0, 1)))
    assert valid_endo(ActEndo("B", (0, 7), (1, 1)))
    for bad in (ActEndo("C", (0,), (0,)), ActEndo("B", (0, 0), (0,)),
                ActEndo("A", (0, 1), (0, -1)), ActEndo("A", (0, 1), (2, 0)),
                ActEndo("B", (0, -1), (0, 1))):
        assert not valid_endo(bad), bad


@pytest.mark.parametrize("make", [
    lambda: ActEndo("A", (1, -2), (1, 1)),
    lambda: ac.quot(2, 5, 1),
])
def test_records_are_values_that_refuse_assignment(make):
    record, twin = make(), make()
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def compose_by_index(theta, phi):
    """``compose`` as it read before zipping shifts and targets: the per-index
    composition, kept as the oracle."""
    if theta.n != phi.n:
        raise ValueError("rank mismatch")
    flavor = "A" if "A" in (theta.flavor, phi.flavor) else "B"
    shifts = tuple(
        theta.shifts[i] + phi.shifts[theta.targets[i]] for i in range(theta.n)
    )
    targets = tuple(phi.targets[theta.targets[i]] for i in range(theta.n))
    return ActEndo(flavor, shifts, targets)


def test_application_and_one_based_construction():
    theta = act_endo("B", (2, 0), (2, 1))
    assert theta.targets == (1, 0)
    assert theta((3, 0)) == (5, 1)
    assert theta((0, 1)) == (0, 0)
    assert theta.as_dict() == {"flavor": "B", "shifts": [2, 0], "targets": [2, 1]}


def test_compose_is_apply_then():
    rng = random.Random(30)
    for _ in range(200):
        n = rng.randint(1, 4)
        theta = ac.rand_act_endo(rng, n)
        phi = ac.rand_act_endo(rng, n)
        comp = ac.compose(theta, phi)
        for i in range(n):
            for m in (0, 1, 3):
                assert comp((m, i)) == phi(theta((m, i)))


def test_compose_associative_with_identity():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        a, b, c = (ac.rand_act_endo(rng, n) for _ in range(3))
        assert ac.compose(ac.compose(a, b), c) == ac.compose(a, ac.compose(b, c))
        e = identity(n)
        assert ac.compose(e, a) == a
        assert ac.compose(a, e) == a


def test_compose_flavor_promotion():
    a = ActEndo("A", (-1,), (0,))
    b = ActEndo("B", (2,), (0,))
    assert ac.compose(a, b).flavor == "A"
    assert ac.compose(b, b).flavor == "B"
    assert ac.lift_endo(b).flavor == "A"
    with pytest.raises(ValueError):
        ac.compose(b, identity(2))


def test_kernel_key_exactness():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = ac.rand_act_endo(rng, n)
        b = ac.rand_act_endo(rng, n)
        same_key = ac.kernel_key(a) == ac.kernel_key(b)
        # oracle: compare merge behaviour on a window wide enough to realize
        # every possible merge offset
        w = 2 + max(max(a.shifts), max(b.shifts))
        same_kernel = True
        for i in range(n):
            for j in range(n):
                for mi in range(w):
                    for mj in range(w):
                        if (a((mi, i)) == a((mj, j))) != (b((mi, i)) == b((mj, j))):
                            same_kernel = False
        assert same_key == same_kernel, (a, b)


def test_kernel_leq_via_window_oracle():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = ac.rand_act_endo(rng, n)
        b = ac.rand_act_endo(rng, n)
        got = ac.kernel_leq(a, b)
        w = 2 + max(max(a.shifts), max(b.shifts))
        oracle = all(
            a((mi, i)) == a((mj, j))
            for i in range(n)
            for j in range(n)
            for mi in range(w)
            for mj in range(w)
            if b((mi, i)) == b((mj, j))
        )
        assert got == oracle, (a, b)


def test_greens_leq_sides():
    a = act_endo("B", (0, 0), (1, 1))
    b = act_endo("B", (0, 1), (1, 2))
    assert ac.greens_leq("L", a, b)
    assert not ac.greens_leq("L", b, a)
    assert ac.greens_leq("Lstar", a, b) == ac.greens_leq("L", a, b)
    assert ac.greens_leq("R", a, b)  # b merges nothing
    with pytest.raises(ValueError):
        ac.greens_leq("bogus", a, b)


def test_pc_closure_and_image():
    theta = act_endo("B", (1, 0, 2), (2, 2, 3))
    assert ac.target_set(theta) == {1, 2}
    assert ac.act_rank(theta) == 2


# --- quotients ---------------------------------------------------------------


def test_act_quot_canonical_pairs():
    assert ac.quot(2, 5, 1) == ac.quot(3, 6, 1)
    assert ac.quot(2, 5, 1).as_dict() == {"m": 3, "i": 1}
    assert ac.quot(0, 1, 1) != ac.quot(0, 1, 2)
    with pytest.raises(ValueError):
        ac.quot(-1, 0, 1)
    with pytest.raises(ValueError):
        ac.embed(-3, 1)
    for i in (0, -5):  # generator indices are 1-based
        with pytest.raises(ValueError, match="generator index must be at least 1"):
            ac.quot(0, 0, i)
        with pytest.raises(ValueError, match="generator index must be at least 1"):
            ac.embed(0, i)
    assert ac.embed(4, 2) == ac.quot(1, 5, 2)


# --- decomposition -----------------------------------------------------------


def test_act_left_decompose_negative_shift_example():
    alpha = act_endo("A", (-2, 0), (1, 2))
    a, b = ac.decompose(alpha, "left")
    assert a == ActEndo("B", (2, 2), (0, 1))
    assert b == act_endo("B", (0, 2), (1, 2))
    assert ac.verify_decomposition(alpha, (a, b), "left")


def test_act_left_decompose_nonnegative_is_trivial():
    alpha = act_endo("A", (1, 0), (2, 2))
    a, b = ac.decompose(alpha, "left")
    assert a == identity(2)
    assert b == act_endo("B", (1, 0), (2, 2))
    assert ac.verify_decomposition(alpha, (a, b), "left")


def test_act_left_decompose_swap_example():
    alpha = act_endo("A", (-1, -1), (2, 1))
    a, b = ac.decompose(alpha, "left")
    assert a.shifts == (1, 1)
    assert b == act_endo("B", (0, 0), (2, 1))
    assert ac.verify_decomposition(alpha, (a, b), "left")


def test_verify_act_decomposition_rejects_tampering():
    alpha = act_endo("A", (-2, 0), (1, 2))
    a, b = ac.decompose(alpha, "left")
    wrong = ActEndo("B", tuple(s + 1 for s in b.shifts), b.targets)
    assert not ac.verify_decomposition(alpha, (a, wrong), "left")
    non_unit = ActEndo("B", (2, 2), (0, 0))  # not an identity pattern
    assert not ac.verify_decomposition(alpha, (non_unit, b), "left")
    # each pair below recomposes to its alpha, but one part lies outside
    # End(B): b with alpha's negative shift, a part of flavor A, or a unit
    # with a negative shift
    unshifted = ActEndo("B", alpha.shifts, alpha.targets)
    assert not ac.verify_decomposition(alpha, (identity(2), unshifted), "left")
    assert not ac.verify_decomposition(alpha, (ac.lift_endo(a), b), "left")
    assert not ac.verify_decomposition(alpha, (a, ac.lift_endo(b)), "left")
    positive = act_endo("A", (1, 3), (1, 2))
    negative_unit = ActEndo("B", (-1, -1), (0, 1))
    assert not ac.verify_decomposition(
        positive, (negative_unit, act_endo("B", (0, 2), (1, 2))), "left")
    assert ac.verify_decomposition(positive, ac.decompose(positive, "left"), "left")
    for mode in ("right", "straight"):  # the act backend has only the left mode
        with pytest.raises(ValueError):
            ac.decompose(alpha, mode)
        with pytest.raises(ValueError):
            ac.verify_decomposition(alpha, (a, b), mode)


def test_act_left_decompose_random_round_trip():
    rng = random.Random(34)
    for _ in range(200):
        n = rng.randint(1, 4)
        alpha = rand_act_endo_by_randint(rng, n, flavor="A")
        a, b = ac.decompose(alpha, "left")
        assert all(s >= 0 for s in a.shifts + b.shifts)
        assert ac.verify_decomposition(alpha, (a, b), "left")


def test_a_decomposition_outside_end_b_fails_its_check(monkeypatch, capsys):
    def unshifted(alpha, mode):
        # d = 0: b keeps alpha's negative shifts, and a# b is still alpha
        return identity(alpha.n), ActEndo("B", alpha.shifts, alpha.targets)

    monkeypatch.setattr(ac, "decompose", unshifted)
    assert cli.run(["decompose", "--backend", "act"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["outcome"] == "fail"
    assert check["details"]["b"] == {"flavor": "B", "shifts": [-2, 0],
                                     "targets": [1, 2]}


# --- gamma constructions -------------------------------------------------------


def test_gamma_left_single_target_example():
    beta = act_endo("B", (2, 1), (1, 1))
    alpha = act_endo("B", (5, 3), (1, 1))
    gamma = ac.gamma_left(alpha, beta)
    assert gamma == act_endo("B", (0, 0), (1, 1))
    assert ac.target_set(ac.compose(gamma, beta)) == ac.target_set(alpha)


def test_gamma_left_routes_to_preimage():
    alpha = act_endo("B", (0, 0), (2, 2))
    beta = act_endo("B", (0, 0), (1, 2))
    gamma = ac.gamma_left(alpha, beta)
    assert gamma.targets == (1, 1)  # both generators to the preimage of b2
    assert ac.target_set(ac.compose(gamma, beta)) == ac.target_set(alpha)


def test_gamma_left_identity_fast_path_and_precondition():
    # no fast path: alpha against itself takes the general construction,
    # which routes each generator to its preimage (here, a swap)
    alpha = act_endo("B", (1, 2), (2, 1))
    assert ac.gamma_left(alpha, alpha) == act_endo("B", (0, 0), (2, 1))
    outside = act_endo("B", (0, 0), (1, 1))
    with pytest.raises(PreconditionViolated):
        ac.gamma_left(alpha, outside)


def test_gamma_left_random_comparable_pairs():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 4)
        beta = ac.rand_act_endo(rng, n)
        alpha = ac.compose(ac.rand_act_endo(rng, n), beta)  # image inside beta's
        gamma = ac.gamma_left(alpha, beta)
        assert ac.target_set(ac.compose(gamma, beta)) == ac.target_set(alpha)


def test_gamma_right_identity_base():
    alpha = act_endo("B", (3, 1), (2, 2))
    gamma = ac.gamma_right(alpha, identity(2))
    assert gamma == alpha  # composing with the identity must reproduce alpha


def test_gamma_right_global_shift_example():
    beta = act_endo("B", (1, 1), (1, 2))
    alpha = act_endo("B", (0, 0), (1, 1))
    gamma = ac.gamma_right(alpha, beta)
    assert gamma == alpha
    assert ac.kernel_key(ac.compose(beta, gamma)) == ac.kernel_key(alpha)


def test_gamma_right_identity_fast_path_and_precondition():
    # no fast path: alpha against itself takes the general construction,
    # here the identity translated by the padding p = 2
    alpha = act_endo("B", (1, 2), (2, 1))
    assert ac.gamma_right(alpha, alpha) == act_endo("B", (2, 2), (1, 2))
    merger = act_endo("B", (0, 0), (1, 1))
    split = act_endo("B", (0, 0), (1, 2))
    with pytest.raises(PreconditionViolated):
        ac.gamma_right(split, merger)  # beta merges what alpha keeps apart


def test_gamma_right_random_comparable_pairs():
    rng = random.Random(36)
    for _ in range(300):
        n = rng.randint(1, 4)
        beta = ac.rand_act_endo(rng, n)
        alpha = ac.compose(beta, ac.rand_act_endo(rng, n))  # kernel above beta's
        gamma = ac.gamma_right(alpha, beta)
        assert ac.kernel_key(ac.compose(beta, gamma)) == ac.kernel_key(alpha)


# --- idempotents and the subgroup surrogate -----------------------------------


def test_lstar_idempotent():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 4)
        alpha = ac.rand_act_endo(rng, n)
        eps = ac.lstar_idempotent(alpha)
        assert ac.compose(eps, eps) == eps
        assert ac.target_set(eps) == ac.target_set(alpha)
        assert ac.greens_leq("Lstar", eps, alpha)
        assert ac.greens_leq("Lstar", alpha, eps)


def test_rstar_idempotent():
    rng = random.Random(38)
    for _ in range(200):
        n = rng.randint(1, 4)
        alpha = ac.rand_act_endo(rng, n)
        eps = ac.rstar_idempotent(alpha)
        assert ac.compose(eps, eps) == eps
        assert ac.kernel_key(eps) == ac.kernel_key(alpha)
        assert ac.greens_leq("Rstar", eps, alpha)
        assert ac.greens_leq("Rstar", alpha, eps)


def test_square_cancellable_examples():
    assert ac.is_square_cancellable(identity(3))
    # 0 -> 1 -> 2 -> 2 collapses the target set after squaring
    chain = act_endo("B", (0, 0, 0), (2, 3, 3))
    assert not ac.is_square_cancellable(chain)


def test_rand_square_cancellable_family():
    rng = random.Random(39)
    for _ in range(300):
        n = rng.randint(1, 4)
        alpha = ac.rand_square_cancellable(rng, n)
        assert ac.is_square_cancellable(alpha)
        sq = ac.compose(alpha, alpha)
        assert ac.target_set(sq) == ac.target_set(alpha)
        assert ac.kernel_key(sq) == ac.kernel_key(alpha)


def test_hstar_element_membership():
    rng = random.Random(40)
    for _ in range(200):
        n = rng.randint(1, 4)
        alpha = ac.rand_square_cancellable(rng, n)
        theta = ac.rand_hstar_element(rng, alpha)
        assert ac.kernel_key(theta) == ac.kernel_key(alpha)
        assert ac.target_set(theta) == ac.target_set(alpha)


def test_left_ore_solve():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 4)
        alpha = ac.rand_square_cancellable(rng, n)
        a = ac.rand_hstar_element(rng, alpha)
        b = ac.rand_hstar_element(rng, alpha)
        u, v = ac.left_ore_solve(alpha, a, b)
        assert ac.compose(u, a) == ac.compose(v, b)
        for theta in (u, v):
            assert ac.hstar_class(theta) == ac.hstar_class(alpha)


def test_left_ore_solve_refuses_elements_that_do_not_permute_the_targets():
    alpha = identity(2)
    merged = act_endo("B", (0, 0), (2, 2))  # sends both of alpha's targets onto b_2
    with pytest.raises(ac.PreconditionViolated, match="permute the targets"):
        ac.left_ore_solve(alpha, merged, alpha)
    with pytest.raises(ac.PreconditionViolated, match="permute the targets"):
        ac.left_ore_solve(alpha, alpha, merged)
    # alpha hits b_1 alone; an element moving b_1 onto b_2 leaves its class
    single = act_endo("B", (0, 0), (1, 1))
    outside = act_endo("B", (0, 0), (2, 1))
    with pytest.raises(ac.PreconditionViolated, match="permute the targets"):
        ac.left_ore_solve(single, outside, single)


# --- properties on random endomorphisms of one rank, flavors mixed ----------


@st.composite
def endos(draw, n, flavors="AB"):
    flavor = draw(st.sampled_from(flavors))
    lo = 0 if flavor == "B" else -5
    shifts = draw(st.lists(st.integers(lo, 5), min_size=n, max_size=n))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return ActEndo(flavor, tuple(shifts), tuple(targets))


@st.composite
def endo_lists(draw, count):
    n = draw(st.integers(1, 5))
    return [draw(endos(n)) for _ in range(count)]


@given(endo_lists(2))
def test_compose_matches_the_per_index_composition(pair):
    theta, phi = pair
    assert ac.compose(theta, phi) == compose_by_index(theta, phi)
    with pytest.raises(ValueError, match="^rank mismatch$"):
        ac.compose(theta, identity(theta.n + 1))


@given(endo_lists(3))
def test_compose_is_associative_with_a_two_sided_unit(abc):
    a, b, c = abc
    assert ac.compose(ac.compose(a, b), c) == ac.compose(a, ac.compose(b, c))
    for e in (identity(a.n), identity(a.n, a.flavor)):
        assert ac.compose(e, a) == a
        assert ac.compose(a, e) == a


@given(st.integers(1, 5).flatmap(lambda n: endos(n, "B")))
def test_gammas_of_equal_arguments_take_the_general_construction(alpha):
    # the constructions do not check their own property; these checks do
    g = ac.gamma_left(alpha, alpha)
    assert ac.target_set(ac.compose(g, alpha)) == ac.target_set(alpha)
    g = ac.gamma_right(alpha, alpha)
    assert ac.kernel_key(ac.compose(alpha, g)) == ac.kernel_key(alpha)


@given(endo_lists(1), st.data())
def test_with_kernel_keeps_the_kernel(alpha_list, data):
    (alpha,) = alpha_list
    n, k = alpha.n, ac.act_rank(alpha)
    first = ac.first_preimages(alpha)
    assert first == {t: min(i for i in range(n) if alpha.targets[i] == t)
                     for t in alpha.targets}
    classes = ac.merge_classes(alpha)
    assert [c[0] for c in classes] == sorted(first.values())
    assert sorted(i for c in classes for i in c) == list(range(n))
    bases = data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    distinct = data.draw(st.permutations(range(n)))[:k]
    assert ac.kernel_key(ac.with_kernel(alpha, bases, distinct)) == ac.kernel_key(alpha)
    anywhere = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    assert ac.kernel_leq(ac.with_kernel(alpha, bases, anywhere), alpha)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    endos(n, "B"), endos(n, "B"), endos(n))), st.integers(), st.data())
def test_each_construction_returns_a_valid_endomorphism_of_its_flavor(
        triple, seed, data):
    # the constructions do not check what they build; valid_endo does, on
    # inputs that meet each one's precondition
    theta, beta, alpha = triple
    n, rng = beta.n, random.Random(seed)
    k = ac.act_rank(alpha)
    bases = data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    sq = ac.rand_square_cancellable(rng, n)
    a_el, b_el = ac.rand_hstar_element(rng, sq), ac.rand_hstar_element(rng, sq)
    mixed = "A" if "A" in (alpha.flavor, beta.flavor) else "B"
    built = [
        ("compose", ac.compose(alpha, beta), mixed),
        ("with_kernel", ac.with_kernel(alpha, bases, targets), "B"),
        ("gamma_left", ac.gamma_left(ac.compose(theta, beta), beta), "B"),
        ("gamma_right", ac.gamma_right(ac.compose(beta, theta), beta), "B"),
        ("lstar_idempotent", ac.lstar_idempotent(alpha), "B"),
        ("rstar_idempotent", ac.rstar_idempotent(alpha), "B"),
        *(("left_ore_solve", x, "B") for x in ac.left_ore_solve(sq, a_el, b_el)),
        *(("decompose", x, "B") for x in ac.decompose(alpha, "left")),
        ("rand_act_endo", ac.rand_act_endo(rng, n), "B"),
        ("rand_square_cancellable", sq, "B"),
        ("rand_hstar_element", a_el, "B"),
        ("_rand_lstar_below", su._rand_lstar_below(rng, beta), "B"),
        ("_rand_kernel_above", su._rand_kernel_above(rng, alpha), "B"),
        ("_kernel_preserving_twin", su._kernel_preserving_twin(rng, beta), "B"),
        ("construct_image_gamma",
         su.construct_image_gamma(ac.compose(alpha, beta), beta), "A"),
    ]
    for name, record, flavor in built:
        assert valid_endo(record) and record.flavor == flavor, (name, record)


# --- seeded samplers against their randint streams ----------------------------


def rand_act_endo_by_randint(rng, n, flavor="B"):
    """``rand_act_endo`` as it drew before reading ``getrandbits`` directly,
    kept as the oracle for its values and its stream; flavor "A" draws
    shifts from -5 too, as overmonoid samples for the tests."""
    lo = 0 if flavor == "B" else -5
    return ActEndo(
        flavor,
        tuple(rng.randint(lo, 5) for _ in range(n)),
        tuple(rng.randrange(n) for _ in range(n)),
    )


def rand_square_cancellable_by_randint(rng, n):
    """``rand_square_cancellable`` as it read before, kept as its oracle."""
    size = rng.randint(1, n)
    t = sorted(rng.sample(range(n), size))
    perm = list(t)
    rng.shuffle(perm)
    rho = dict(zip(t, perm))
    shifts = []
    targets = []
    for i in range(n):
        if i in rho:
            shifts.append(rng.randint(0, 5))
            targets.append(rho[i])
        else:
            anchor = rng.choice(t)
            shifts.append(rng.randint(0, 5))
            targets.append(rho[anchor])
    return ActEndo("B", tuple(shifts), tuple(targets))


def rand_hstar_element_by_randint(rng, alpha):
    """``rand_hstar_element`` as it drew before, kept as its oracle."""
    perm = sorted(ac.target_set(alpha))
    rng.shuffle(perm)
    return ac.with_kernel(alpha, [rng.randint(0, 4) for _ in perm], perm)


@given(st.integers(), st.integers(1, 4))
def test_act_samplers_read_the_randint_stream(seed, n):
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert ac.rand_act_endo(rng, n) == rand_act_endo_by_randint(oracle, n)
        sq = ac.rand_square_cancellable(rng, n)
        assert sq == rand_square_cancellable_by_randint(oracle, n)
        assert (ac.rand_hstar_element(rng, sq)
                == rand_hstar_element_by_randint(oracle, sq))
    assert rng.random() == oracle.random()
