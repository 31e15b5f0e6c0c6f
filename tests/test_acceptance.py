"""Acceptance suite: one test per criterion, at the stated ranges.

Everything is exact rational arithmetic, so every tolerance is zero:
"agree" always means coefficient-for-coefficient equality.  Each test
prints one pass line (visible with pytest -s); a failed assertion is
the fail line.
"""

import random
import time
from fractions import Fraction

from qlab.identities import (
    ParamEnv,
    REGISTRY,
    build_side,
    crank_rank_extraction_check,
    get_identity,
    positivity_scan,
    run_suite,
)
from qlab.identities.moments import (
    crank_moment_finite,
    crank_moment_infinite,
    crank_moment_infinite_positive_form,
    rank_moment_finite,
    rank_moment_infinite,
)
from qlab.identities.spt_family import overlined_largest_series
from qlab.partitions import (
    Partition,
    moment,
    n_sc,
    overlined_largest_sum,
    partition_count,
    partition_tuples,
    rank,
    spt,
)
from qlab.series import QSeries, poch, q_binomial
from qlab.identities.spt_family import n_sc_generating_function

from _oracles import pentagonal_coeffs


def test_criterion_1_spt_identity_combinatorial():
    started = time.perf_counter()
    for n in range(1, 31):
        lhs = 2 * spt(n)
        rhs = 2 * n * partition_count(n) - moment("rank", 2, n, positive_only=False)
        assert lhs == rhs, f"smallest-parts identity fails at n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"enumeration too slow: {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: spt(n) = n p(n) - N_2(n)/2 for n <= 30 ({elapsed:.1f}s)")


def test_criterion_2_full_registry_suite():
    reports = run_suite(seed=0, samples_per_identity=5, order=40, n_max=6)
    fails = [r for r in reports if not r.passed]
    assert not fails, f"{len(fails)} verification failures, first: {fails[0]}"
    covered = {}
    for r in reports:
        covered.setdefault(r.identity_id, {"envs": set(), "cutoffs": set()})
        covered[r.identity_id]["envs"].add(r.env.sort_key())
        covered[r.identity_id]["cutoffs"].add(r.n_value)
    assert set(covered) == set(REGISTRY) - {"R35"}
    for identity_id, seen in covered.items():
        identity = REGISTRY[identity_id]
        if identity.params:
            assert len(seen["envs"]) >= 5, f"{identity_id}: {len(seen['envs'])} envs"
        if identity.kind == "finite":
            assert seen["cutoffs"] == set(range(1, 7)), identity_id
        else:
            assert seen["cutoffs"] == {None}
    print(
        f"ACCEPTANCE 2 PASS: {len(reports)} verifications at T=40, "
        "every entry but the scan, all exact"
    )


def test_criterion_3_overlined_largest_part_value():
    assert overlined_largest_sum(4) == 17
    series = overlined_largest_series(10)
    assert series[4] == 17
    print("ACCEPTANCE 3 PASS: overlined-largest-part statistic at n=4 is 17, both routes")


def test_criterion_4_self_conjugate_cross_check():
    series = n_sc_generating_function(12)
    for n in range(1, 13):
        assert n_sc(n) == series[n], f"weighted count mismatch at n={n}"
    print("ACCEPTANCE 4 PASS: S-partition enumeration matches series for n <= 12")


def test_criterion_5_extraction_equivalence_and_limits():
    for n_value in range(1, 7):
        for report in crank_rank_extraction_check(n_value, 30):
            assert report.passed, (n_value, report.identity_id)
    # the cutoff forms tend to the stated infinite forms
    order = 20
    c_inf = crank_moment_infinite(order)
    r_inf = rank_moment_infinite(order)
    one = QSeries.one(order)
    assert c_inf == crank_moment_infinite_positive_form(one)
    for big_n in (20, 25):
        assert crank_moment_finite(big_n, one) == c_inf, f"crank at N={big_n}"
        assert rank_moment_finite(big_n, one) == r_inf, f"rank at N={big_n}"
    print(
        "ACCEPTANCE 5 PASS: moment extraction pipelines match closed forms "
        "(N <= 6, T=30) and stabilize to the infinite forms by N=20 (n <= 20)"
    )


def test_criterion_6_positivity_observation():
    rows = positivity_scan(8, 50)
    negatives = [r for r in rows if not r.non_negative]
    assert not negatives, f"negative coefficients found: {negatives[:3]}"
    print(
        "ACCEPTANCE 6 PASS: moment-difference coefficients non-negative "
        f"for N <= 8, T <= 50 ({len(rows)} coefficients scanned; observation, not theorem)"
    )


def test_criterion_7_finite_entries_stabilize():
    env2 = ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3))
    env1 = ParamEnv(a=Fraction(1, 2))
    # each infinite side here has a builder of its own, not the finite sum at N = T + 1
    pairs = [
        ("R10", "R15", "lhs", env2),
        ("R11", "R16", "rhs", env1),
        ("R12", "R17", "lhs", env2),
        ("R13", "R18", "rhs", env1),
        ("R14", "R19", "lhs", env1),
    ]
    order = 20
    for finite_id, infinite_id, infinite_side, env in pairs:
        finite = get_identity(finite_id)
        limit = build_side(get_identity(infinite_id), infinite_side, env, None, order)
        at_25 = build_side(finite, "lhs", env, 25, order)
        at_28 = build_side(finite, "lhs", env, 28, order)
        assert at_25 == at_28, f"{finite_id}: coefficients still moving past N=25"
        assert at_25 == limit, f"{finite_id} does not match {infinite_id}"
    print(
        "ACCEPTANCE 7 PASS: finite entries stabilize by N=25 for n <= 20 "
        "and match the infinite entries"
    )


def test_criterion_8_property_suites():
    # series-algebra ring laws on random series to q^15
    rng = random.Random(2024)
    order = 15

    def random_series():
        return QSeries(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order + 1)]
        )

    for _ in range(25):
        x, y, z = random_series(), random_series(), random_series()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    # Pochhammer cocycle for random x, n+m <= 12
    for _ in range(25):
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        n = rng.randint(0, 6)
        m = rng.randint(0, 6)
        assert poch(x, 0, n, 12) * poch(x, n, m, 12) == poch(x, 0, n + m, 12)

    # Gaussian binomial symmetry, recurrences, non-negativity
    for n_top in range(0, 10):
        for n_bot in range(0, n_top + 1):
            poly = q_binomial(n_top, n_bot, 50)
            assert poly == q_binomial(n_top, n_top - n_bot, 50)
            assert all(c >= 0 and c.denominator == 1 for c in poly.coeffs)
            if 0 < n_bot < n_top:
                assert poly == q_binomial(n_top - 1, n_bot - 1, 50) + q_binomial(
                    n_top - 1, n_bot, 50
                ).shift(n_bot)
                assert poly == q_binomial(n_top - 1, n_bot - 1, 50).shift(
                    n_top - n_bot
                ) + q_binomial(n_top - 1, n_bot, 50)

    # pentagonal-number oracle for (q;q)_inf
    expected = QSeries(pentagonal_coeffs(40))
    assert poch(1, 1, None, 40) == expected

    # rank symmetry N(-k, n) = N(k, n) for n <= 25
    for n in range(1, 26):
        counts = {}
        for p in map(Partition, partition_tuples(n)):
            k = rank(p)
            counts[k] = counts.get(k, 0) + 1
        for k, c in counts.items():
            assert counts.get(-k, 0) == c, f"rank symmetry fails at n={n}, k={k}"

    # sum_k N(k,n) = sum_k M(k,n) = p(n) for n <= 30
    for n in range(1, 31):
        p_n = partition_count(n)
        assert moment("rank", 0, n, positive_only=False) == p_n
        assert moment("crank", 0, n, positive_only=False) == p_n

    print("ACCEPTANCE 8 PASS: ring laws, cocycle, binomial, pentagonal, rank/crank tallies")
