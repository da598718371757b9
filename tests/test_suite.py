import random

import pytest
from hypothesis import given, strategies as st

from indalg.orders import acts as ac
from indalg.orders import suite as su

ACT_CHECKS = [
    "fs_rstar_vs_r",
    "fs_lstar_vs_l",
    "ei_commuting_compositions",
    "eii_l_gamma_left",
    "eii_r_gamma_right",
    "eiii_l_idempotent",
    "eiii_r_idempotent",
    "evi_l_left_cancellation",
    "evi_r_right_cancellation",
    "evii_r_kernel_cancellation",
    "gii_hstar_left_ore",
]


def test_act_suite_all_checks_pass_small_ranks():
    for n in (1, 2, 3):
        report = su.run_act_suite(n, seed=0, samples=60)
        assert [c.name for c in report] == ACT_CHECKS
        for check in report:
            assert check.outcome == "pass", (n, check)
            assert check.details["samples"] == 60
            assert check.details["failures"] == []


def test_act_suite_kernel_cancellation_nonvacuous():
    report = su.run_act_suite(2, seed=3, samples=80)
    evii = next(c for c in report if c.name == "evii_r_kernel_cancellation")
    assert evii.details["nonvacuous"] > 0


def test_act_suite_kernel_cancellation_untested_is_inconclusive():
    # one sample whose kernel hypothesis fails tests the implication on nothing
    report = su.run_act_suite(2, seed=2, samples=1)
    evii = next(c for c in report if c.name == "evii_r_kernel_cancellation")
    assert evii.outcome == "inconclusive"
    assert evii.details == {"samples": 1, "failures": [], "nonvacuous": 0}
    assert all(c.outcome == "pass" for c in report if c is not evii)


def test_matrix_suite_passes():
    for n in (1, 2, 3, 4):
        report = su.run_matrix_suite(n, seed=1, samples=60)
        assert [c.name for c in report] == [
            "fs_rstar_vs_r",
            "fs_lstar_vs_l",
            "eii_r_matrix_informational",
        ]
        for check in report:
            assert check.outcome == "pass", (n, check)


def test_suite_reports_deterministic():
    a = su.run_act_suite(2, seed=7, samples=40)
    b = su.run_act_suite(2, seed=7, samples=40)
    assert a == b
    c = su.run_matrix_suite(2, seed=7, samples=40)
    d = su.run_matrix_suite(2, seed=7, samples=40)
    assert c == d


def test_run_suite_dispatch():
    assert su.run_suite("act", 2, 0, 10) == su.run_act_suite(2, 0, 10)
    assert su.run_suite("matrix", 2, 0, 10) == su.run_matrix_suite(2, 0, 10)
    with pytest.raises(ValueError):
        su.run_suite("nope", 2, 0, 10)


def test_window_kernel_leq_matches_pair_scan():
    import random

    rng = random.Random(50)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = ac.rand_act_endo(rng, n)
        b = ac.rand_act_endo(rng, n)
        assert su.window_kernel_leq(a, b) == ac.kernel_leq(a, b)


def _pair_scan_kernel_leq(a, b):
    """The former double loop of window_kernel_leq, kept as its oracle."""
    la, lb = ac.lift_endo(a), ac.lift_endo(b)
    w = 2 + max([abs(s) for s in a.shifts + b.shifts] or [0])
    elems = [(m, i) for m in range(-w, w + 1) for i in range(a.n)]
    for x in elems:
        for y in elems:
            if lb(x) == lb(y) and la(x) != la(y):
                return False
    return True


@st.composite
def _act_endo_pairs(draw):
    n = draw(st.integers(1, 4))

    def endo():
        return ac.ActEndo(
            "B",
            tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))),
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))),
        )

    return endo(), endo()


@given(_act_endo_pairs())
def test_window_kernel_leq_matches_the_double_loop(pair):
    a, b = pair
    assert su.window_kernel_leq(a, b) == _pair_scan_kernel_leq(a, b)


def test_construct_image_gamma_verified_by_caller():
    import random

    rng = random.Random(51)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = ac.rand_act_endo(rng, n)
        b = ac.rand_act_endo(rng, n)
        gamma = su.construct_image_gamma(a, b)
        divisible = gamma is not None and ac.compose(gamma, ac.lift_endo(b)) == ac.ActEndo(
            "A", a.shifts, a.targets
        )
        assert divisible == ac.greens_leq("L", a, b)


def test_sampled_check_records_failures():
    from indalg.report import Check

    check = Check.sampled("demo")
    check.record(True)
    assert check.outcome == "pass"
    assert check.details == {"samples": 1, "failures": []}
    for k in range(5):
        check.record(False, {"k": k})
    assert check.outcome == "fail"
    assert check.details == {
        "samples": 6,
        "failures": [{"k": 0}, {"k": 1}, {"k": 2}],
        "failed": 5,
    }


def test_second_routes_agree_with_greens_leq():
    import random

    from indalg.orders import matrix as mx

    rng = random.Random(52)
    for _ in range(200):
        n = rng.randint(1, 3)
        a, b = ac.rand_act_endo(rng, n), ac.rand_act_endo(rng, n)
        za, zb = mx.rand_int_matrix(rng, n), mx.rand_int_matrix(rng, n)
        for side in ("R", "L", "Rstar", "Lstar"):
            assert su.act_route(side, a, b) == ac.greens_leq(side, a, b)
            assert su.matrix_route(side, za, zb) == mx.greens_leq(side, za, zb)


# --- the suite's own samplers against their randint streams ------------------


def rand_lstar_below_by_randint(rng, beta):
    """``suite._rand_lstar_below`` as it drew before reading ``getrandbits``
    directly, kept as the oracle for its values and its stream."""
    pool = sorted(ac.target_set(beta))
    return ac.ActEndo(
        "B",
        tuple(rng.randint(0, 5) for _ in range(beta.n)),
        tuple(rng.choice(pool) for _ in range(beta.n)),
    )


def rand_kernel_above_by_randint(rng, alpha):
    """``suite._rand_kernel_above`` as it drew before, kept as its oracle."""
    draws = [(rng.randint(0, 4), rng.randrange(alpha.n))
             for _ in range(ac.act_rank(alpha))]
    return ac.with_kernel(alpha, *zip(*draws))


def kernel_preserving_twin_by_randint(rng, beta):
    """``suite._kernel_preserving_twin`` as it drew before, kept as its
    oracle."""
    pool = rng.sample(range(beta.n), ac.act_rank(beta))
    return ac.with_kernel(beta, [rng.randint(0, 4) for _ in pool], pool)


@given(st.integers(), st.integers(1, 4))
def test_suite_samplers_read_the_randint_stream(seed, n):
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(3):
        beta = ac.rand_act_endo(rng, n)
        assert beta == ac.rand_act_endo(oracle, n)
        assert su._rand_lstar_below(rng, beta) == rand_lstar_below_by_randint(oracle, beta)
        above = su._rand_kernel_above(rng, beta)
        assert above == rand_kernel_above_by_randint(oracle, beta)
        assert (su._kernel_preserving_twin(rng, above)
                == kernel_preserving_twin_by_randint(oracle, above))
    assert rng.random() == oracle.random()
