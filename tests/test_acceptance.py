"""Acceptance suite: one test per headline guarantee, one summary line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (no floating-point tolerances anywhere).
"""

import itertools
import random
import time

from indalg import catalog as cat
from indalg import counterexample as ce
from indalg import terms as tm
from indalg import words as wd
from indalg.counterexample import HMap
from indalg.orders import acts as ac
from indalg.orders import linalg as la
from indalg.orders import matrix as mx
from indalg.orders import monoids as mo
from indalg.orders import suite as su
from indalg.words import inv, mul

import word_enum as we
from linalg_oracles import col_space_leq, mat_q

COEFF_POOL = [
    wd.gen(1),
    wd.gen(2),
    wd.gen(3),
    wd.parse_word("z1*z2"),
    wd.parse_word("z3*z1"),
]


def test_01_pinned_evaluations():
    h = HMap()
    cases = [
        (wd.gen(1), wd.gen(2), wd.parse_word("z6*z2")),
        (wd.gen(3), wd.gen(2), wd.parse_word("z8*z2")),
        (wd.gen(1), wd.gen(4), wd.parse_word("z10*z4")),
    ]
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        results = [h.g(w1, w2) for w1, w2, _ in cases]
        best = min(best, time.perf_counter() - start)
    for (w1, w2, want), got in zip(cases, results):
        assert got == want, (wd.format_word(w1), wd.format_word(w2))
    assert best < 0.001, f"pinned evaluations took {best * 1000:.3f} ms"
    print(
        f"\n[PASS] criterion 01 pinned evaluations: 3/3 exact "
        f"({best * 1e6:.1f} us)"
    )


def test_02_right_translation_homogeneity():
    start = time.perf_counter()
    check = ce.check_homogeneity(HMap(), samples=10_000, seed=2024)
    elapsed = time.perf_counter() - start
    assert check.details["samples"] == 10_000
    assert check.details["failures"] == [], check.details["failures"][:2]
    assert elapsed < 5.0, f"homogeneity sweep took {elapsed:.2f} s"
    print(
        f"[PASS] criterion 02 homogeneity: 10000/10000 triples exact "
        f"({elapsed:.2f} s)"
    )


def test_03_distributivity_refutations():
    h = HMap()
    start = time.perf_counter()
    corpus = tm.sample_terms(
        max_depth=4, max_var=3, coeff_pool=COEFF_POOL, seed=41, count=200
    )
    form2 = 0
    unrefuted = []
    for t in corpus:
        form = ce.classify(t, h)
        if form.form != 2:
            continue
        form2 += 1
        ref = ce.refute_distributivity(t, h, form)
        # replay the counterexample from scratch
        lhs = mul(ref.a, tm.evaluate(t, ref.mu, h))
        rhs = tm.evaluate(t, tuple(mul(ref.a, w) for w in ref.mu), h)
        assert lhs == ref.lhs and rhs == ref.rhs
        if lhs == rhs:
            unrefuted.append(tm.format_term(t))
    elapsed = time.perf_counter() - start
    assert len(corpus) >= 200
    assert form2 > 0
    assert unrefuted == [], unrefuted[:3]
    assert elapsed < 60.0, f"refutation sweep took {elapsed:.2f} s"
    print(
        f"[PASS] criterion 03 refutations: {form2}/{form2} varying-prefix terms "
        f"refuted out of {len(corpus)} ({elapsed:.2f} s)"
    )


def test_04_classifier_vs_constancy_oracle():
    h = HMap()
    corpus = tm.sample_terms(
        max_depth=5, max_var=3, coeff_pool=COEFF_POOL, seed=42, count=500
    )
    agreements = 0
    form2_count = 0
    for t in corpus:
        form = ce.classify(t, h)
        m = tm.meta(t)
        prefixes = set()
        for mu in itertools.islice(we.positive_tuples(m.arity), 100):
            value = tm.evaluate(t, mu, h)
            prefixes.add(mul(value, inv(mu[m.star - 1])))
        oracle_constant = len(prefixes) == 1
        assert oracle_constant == (form.form == 1), tm.format_term(t)
        agreements += 1
        if form.form == 1:
            assert prefixes == {form.prefix}
            for g in wd.gen_content(form.prefix):
                assert g % 2 == 0 or g in m.content, tm.format_term(t)
        else:
            form2_count += 1
            samples = ce.sample_witnesses(form, t, h, 25)
            fresh = {s.fresh_gen for s in samples}
            assert len(fresh) >= 25, tm.format_term(t)
    assert agreements == 500
    print(
        f"[PASS] criterion 04 classifier vs oracle: 500/500 agree; "
        f"{form2_count} samplers each gave >= 25 distinct fresh generators"
    )


def test_05_finite_algebra_witnesses():
    # exceptional instance: both unary term operations commute with i and q
    # over every argument tuple
    exc = cat.make_instance("exceptional")
    report = cat.check_witness(exc, cat.witness_set(exc, "standard"))
    assert report.ok
    clone = cat.unary_clone(exc)
    assert len(clone.t_ops) == 2
    i_op = next(op for op in exc.ops if op.name == "i")
    q_op = next(op for op in exc.ops if op.name == "q")
    checked = 0
    for table in clone.t_ops:
        for x in range(exc.size):
            assert table[i_op(x)] == i_op(table[x])
        for xs in itertools.product(range(exc.size), repeat=3):
            assert table[q_op(*xs)] == q_op(*(table[x] for x in xs))
            checked += 1
    assert checked == 2 * 4**3

    # linear instance over the 3-element field: the plus-based witness fails
    # on the pinned violation, the translation-symmetric witness passes
    lin = cat.make_instance("linear", q=3, dim=1, a0=[[1]])
    plus = cat.check_witness(lin, cat.witness_set(lin, "plus"))
    assert not plus.ok
    assert {
        "a": [1, 2, 0],
        "op": "f(1,1)+0",
        "args": [0, 0],
        "lhs": 1,
        "rhs": 2,
    } in plus.violations
    assert cat.check_witness(lin, cat.witness_set(lin, "standard")).ok

    # remaining catalog instances pass their standard witnesses
    for kind, params in cat.DEFAULT_INSTANCES:
        alg = cat.make_instance(kind, **params)
        wit = cat.witness_set(alg, "standard")
        assert cat.check_witness(alg, wit).ok, (kind, params)
        assert cat.check_exchange(alg).holds, (kind, params)

    control = cat.check_exchange(cat.make_instance("semilattice"))
    assert not control.holds
    assert control.witness == ((0,), 2, 1)
    print(
        "[PASS] criterion 05 finite-algebra witnesses: exceptional exhaustive "
        f"({checked} tuples), linear plus-witness fails at the pinned tuple, "
        "all instances pass exchange, semilattice control fails"
    )


def test_06_decomposition_round_trips():
    rng = random.Random(43)
    start = time.perf_counter()
    for k in range(1000):
        n = 1 + k % 4
        alpha = mx.rand_rational_matrix(rng, n)
        for mode, dec in (
            ("left", mx.decompose(alpha, "left")),
            ("right", mx.decompose(alpha, "right")),
            ("straight", mx.decompose(alpha, "straight")),
        ):
            (a, da), (b, db) = dec
            assert da == db == 1  # integer parts
            assert mx.verify_decomposition(alpha, dec, mode), (mode, alpha)
            if mode == "straight":
                a2 = la.matmul_int(a, a)
                assert la.rank(a) == la.rank(a2)
                assert col_space_leq(a, b)
                assert col_space_leq(b, a)
                certs = mx.straight_certificates(alpha, dec)
                assert all(certs.values()), (alpha, certs)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"decomposition sweep took {elapsed:.2f} s"
    print(
        f"[PASS] criterion 06 decompositions: 1000 matrices x 3 modes recompose "
        f"exactly ({elapsed:.2f} s)"
    )


def test_07_divisibility_criteria_agree():
    rng = random.Random(44)
    for k in range(500):
        n = 1 + k % 4
        a_q = mx.rand_rational_matrix(rng, n)
        b_q = mx.rand_rational_matrix(rng, n)
        alpha, beta = la.join(*a_q), la.join(*b_q)
        # alpha = beta . gamma solvable  <=>  column-space containment
        gamma = la.solve_right(beta, alpha)
        assert (gamma is not None) == mx.greens_leq("L", a_q, b_q)
        if gamma is not None:
            assert la.matmul(beta, gamma) == alpha
        # alpha = gamma . beta solvable  <=>  kernel containment
        gamma = mx.divides_left(alpha, beta)
        assert (gamma is not None) == mx.greens_leq("R", a_q, b_q)
        if gamma is not None:
            assert la.matmul(gamma, beta) == alpha
    print(
        "[PASS] criterion 07 divisibility criteria: 500 pairs, both directions, "
        "image/kernel routes agree everywhere"
    )


def test_08_full_stratification():
    rng = random.Random(45)
    for k in range(500):
        n = 1 + k % 4
        a = mx.rand_int_matrix(rng, n)
        b = mx.rand_int_matrix(rng, n)
        # the unstarred orders read the integer matrices as rational ones
        la_, lb_ = la.split(mat_q(a[0])), la.split(mat_q(b[0]))
        assert mx.greens_leq("Rstar", a, b) == mx.greens_leq("R", la_, lb_)
        assert mx.greens_leq("Lstar", a, b) == mx.greens_leq("L", la_, lb_)

    rng = random.Random(46)
    for k in range(500):
        n = 1 + k % 3
        a = ac.rand_act_endo(rng, n)
        b = ac.rand_act_endo(rng, n)
        # starred orders on the base monoid vs element-level routes on lifts
        assert ac.greens_leq("Rstar", a, b) == su.window_kernel_leq(a, b)
        gamma = su.construct_image_gamma(a, b)
        divisible = gamma is not None and ac.compose(
            gamma, ac.lift_endo(b)
        ) == ac.ActEndo("A", a.shifts, a.targets)
        assert ac.greens_leq("Lstar", a, b) == divisible
    print(
        "[PASS] criterion 08 full stratification: 500 integer-matrix pairs and "
        "500 act pairs agree with their lifted orders"
    )


def test_09_stratification_suite():
    start = time.perf_counter()
    for n in (2, 3):
        report = su.run_act_suite(n, seed=47, samples=200)
        names = [c.name for c in report]
        assert names == [
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
        for check in report:
            assert check.outcome == "pass", (n, check)
            assert check.details["samples"] == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"suite took {elapsed:.2f} s"
    print(
        f"[PASS] criterion 09 stratification suite: 11 checks x n in (2,3) x "
        f"200 samples all pass ({elapsed:.2f} s)"
    )


def test_10_ore_checker():
    for side in ("left", "right"):
        result = mo.ore_check(mo.POSINT, side, 3)
        assert result.status == "holds", (side, result)

    left = mo.ore_check(mo.FREE2, "left", 3)
    assert left.status == "fails"
    assert "ends in" in left.witness["certificate"]
    right = mo.ore_check(mo.FREE2, "right", 3)
    assert right.status == "fails"
    assert "starts with" in right.witness["certificate"]
    print(
        "[PASS] criterion 10 common multiples: positive integers hold on both "
        "sides, the free monoid fails both with letter certificates"
    )
