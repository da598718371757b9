import json
import random

from hypothesis import example, given, strategies as st

from indalg import cli
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


def test_suite_dispatch_by_backend(capsys):
    for backend, runner in (("act", su.run_act_suite), ("matrix", su.run_matrix_suite)):
        assert cli.run(["suite", "--backend", backend, "--n", "2", "--samples", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == [vars(c) for c in runner(2, 0, 10)]


def test_a_faulty_construction_ends_as_a_failed_check(monkeypatch, capsys):
    real = su.gamma_left

    def missing_a_target(alpha, beta):
        gamma = real(alpha, beta)
        return gamma._replace(targets=(gamma.targets[0],) * gamma.n)

    monkeypatch.setattr(su, "gamma_left", missing_a_target)
    assert cli.run(["suite", "--backend", "act", "--n", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    outcomes = {c["name"]: c["outcome"] for c in report["checks"]}
    assert outcomes == {name: "fail" if name == "eii_l_gamma_left" else "pass"
                        for name in ACT_CHECKS}
    eii_l = next(c for c in report["checks"] if c["name"] == "eii_l_gamma_left")
    assert eii_l["details"]["failed"] > 0
    assert set(eii_l["details"]["failures"][0]) == {"alpha", "beta", "gamma"}


def test_a_fault_in_the_act_constructions_fails_checks(monkeypatch, capsys):
    def flat_classes(alpha, bases, targets):
        # forgets each member's offset within its merge class
        shifts, image = [0] * alpha.n, [0] * alpha.n
        for members, base, target in zip(ac.merge_classes(alpha), bases, targets):
            for i in members:
                shifts[i], image[i] = base, target
        return ac.ActEndo("B", tuple(shifts), tuple(image))

    # read by rstar_idempotent, rand_hstar_element and left_ore_solve
    monkeypatch.setattr(ac, "with_kernel", flat_classes)
    assert cli.run(["suite", "--backend", "act", "--n", "3"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("eiii_r_idempotent", "gii_hstar_left_ore"):
        assert checks[name]["outcome"] == "fail"
        assert checks[name]["details"]["failures"]
    gii = checks["gii_hstar_left_ore"]["details"]["failures"][0]
    assert set(gii) == {"alpha", "a", "b", "u", "v"}


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
@example((ac.ActEndo("B", (10**12, 0), (0, 0)), ac.ActEndo("B", (0, 10**12), (0, 0))))
@example((ac.ActEndo("B", (10**12, 0), (0, 0)), ac.ActEndo("B", (10**12, 0), (0, 0))))
def test_window_kernel_leq_matches_the_double_loop(pair):
    a, b = pair
    # the double loop walks a window as wide as the shifts: too wide at 10^12
    oracle = ac.kernel_leq if max(a.shifts + b.shifts) > 6 else _pair_scan_kernel_leq
    assert su.window_kernel_leq(a, b) == oracle(a, b)


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
        assert ac.kernel_leq(above, beta)
        twin = su._kernel_preserving_twin(rng, above)
        assert twin == kernel_preserving_twin_by_randint(oracle, above)
        assert ac.kernel_key(twin) == ac.kernel_key(above)
    assert rng.random() == oracle.random()
