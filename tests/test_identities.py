import random
from fractions import Fraction
from itertools import product

import pytest

from qlab.identities import (
    ConstraintViolationError,
    Identity,
    ParamEnv,
    REGISTRY,
    SampleExhaustionError,
    UnsupportedNError,
    VerificationReport,
    build_side,
    crank_rank_extraction_check,
    get_identity,
    positivity_scan,
    run_suite,
    sample_env,
    verify,
)
from qlab.identities.common import lambert_bracket, restated
from qlab.identities.model import FINITE
from qlab.identities.phi_sum import phi_block
from qlab.identities.spt_family import _square_sum
from qlab.series import QSeries, ZeroConstantTermError, div_poch, poch

from _oracles import (
    ref_dq_block,
    ref_phi_block,
    ref_r02_rhs_nested,
    ref_r20_lhs,
    ref_square_sum,
)


def test_registry_is_complete():
    assert list(REGISTRY) == [f"R{i:02d}" for i in range(1, 46)]
    assert REGISTRY["R35"].scan_only
    assert sum(1 for i in REGISTRY.values() if i.scan_only) == 1


def test_r05_lhs_vanishes_when_c_equals_d():
    env = ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(2, 5), d=Fraction(2, 5))
    lhs = build_side(get_identity("R05"), "lhs", env, 3, 20)
    assert lhs.is_zero()


def test_r10_sides_agree_at_sample():
    env = ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3))
    identity = get_identity("R10")
    lhs = build_side(identity, "lhs", env, 3, 25)
    rhs = build_side(identity, "rhs", env, 3, 25)
    assert lhs == rhs


def test_r33_closed_form_at_n_one():
    # single-term closed form: q / ((1-q)(1-q^2))
    series = build_side(get_identity("R33"), "rhs", ParamEnv(), 1, 10)
    expected = QSeries.monomial(1, 1, 10).div_binomial(1, 1).div_binomial(1, 2)
    assert series == expected
    # and the extraction route agrees
    assert build_side(get_identity("R33"), "lhs", ParamEnv(), 1, 10) == expected


def test_verify_r01():
    report = verify(get_identity("R01"), ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3)), None, 30)
    assert report.passed and report.first_mismatch_order is None


def test_verify_r05_across_cutoffs():
    env = ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(1, 5), d=Fraction(1, 7))
    identity = get_identity("R05")
    for n_value in range(1, 7):
        report = verify(identity, env, n_value, 40)
        assert report.passed, (n_value, report)


def test_corrupted_side_is_detected():
    base = get_identity("R10")

    def corrupt_rhs(env, n_value, one):
        # off-by-one in an exponent
        return base.side("rhs")(env, n_value, one).shift(1)

    corrupted = Identity(
        id="R10x",
        title="deliberately corrupted",
        statement="harness self-test",
        params=base.params,
        kind=base.kind,
        sides=(("lhs", base.side("lhs")), ("rhs", corrupt_rhs)),
        constraint=base.constraint,
        domain=base.domain,
    )
    report = verify(corrupted, ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3)), 3, 20)
    assert not report.passed
    assert report.first_mismatch_order == 0
    assert report.lhs_coeff is not None and report.rhs_coeff is not None
    assert report.mismatch_side == "rhs"


def test_constraint_violation_is_raised_and_named():
    with pytest.raises(ConstraintViolationError) as err:
        build_side(get_identity("R01"), "lhs", ParamEnv(a=Fraction(1), b=Fraction(1, 3)), None, 10)
    assert "a = 1" in str(err.value)


COMPOUND_POLES = [
    ("R04", dict(a="2", b="1/3", c="1/5", d="1/2"),
     "a*d = 1: (ad)_m in a denominator vanishes and ad/(1-ad) has a pole"),
    ("R04", dict(a="2", b="2/3", c="1/5", d="1/3"),
     "a*d = b: the prefactor denominator (ad - b) vanishes"),
    ("R05", dict(a="2", b="1/3", c="1/5", d="1/2"),
     "a*d = 1: (ad)_m in a denominator vanishes and ad/(1-ad) has a pole"),
    ("R05", dict(a="2", b="2/3", c="1/5", d="1/3"),
     "a*d = b: the prefactor denominator (ad - b) vanishes"),
    ("R37", dict(a="1", b="2", c="3", d="2", z="3"),
     "ABC = DE: the balanced-column factor (1 - DE/(ABC)) vanishes"),
    ("R37", dict(a="2", b="1/3", c="1/5", d="3", z="2"),
     "A = E: the rewritten lower column (q^{N-n} E/A)_n hits a zero factor"),
    ("R37", dict(a="1/2", b="2", c="3", d="2", z="3"),
     "DE = BC: (DE/(BC))_n in a denominator vanishes"),
    ("R39", dict(a="1/2", b="2", c="3", d="1/2"),
     "b*t = 1: (bt)_n in a denominator vanishes"),
    ("R40", dict(a="2", b="1/3", c="1/5", d="1/2"),
     "alpha*z = 1: (alpha z)_n in a denominator vanishes"),
    ("R41", dict(a="2", b="1/3", c="1/5", d="1/2"),
     "alpha*z = 1: (alpha z)_n in a denominator vanishes"),
]


@pytest.mark.parametrize("identity_id,values,message", COMPOUND_POLES)
def test_compound_pole_messages(identity_id, values, message):
    # a pole on a product or a ratio of parameters, not on one parameter's value
    identity = get_identity(identity_id)
    n_value = 2 if identity.kind == FINITE else None
    env = ParamEnv(**{name: Fraction(v) for name, v in values.items()})
    with pytest.raises(ConstraintViolationError) as err:
        build_side(identity, "lhs", env, n_value, 6)
    assert str(err.value) == f"{identity_id}: {message}"


def test_finite_identity_needs_cutoff():
    with pytest.raises(UnsupportedNError):
        build_side(
            get_identity("R05"),
            "lhs",
            ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(1, 5), d=Fraction(1, 7)),
            None,
            10,
        )


@pytest.mark.parametrize(
    "identity_id,env,n_value",
    [
        ("R01", ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3)), None),
        ("R04", ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(2, 3), d=Fraction(1, 7)), None),
        ("R12", ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3)), 4),
        ("R19", ParamEnv(a=Fraction(2, 3)), None),
        ("R23", ParamEnv(d=Fraction(3, 4)), None),
        ("R37", ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(-2, 7), d=Fraction(3, 4), z=Fraction(5, 2)), 4),
        ("R40", ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(-2, 7), d=Fraction(3, 4)), None),
    ],
)
def test_stability_under_truncation(identity_id, env, n_value):
    # recomputing at a smaller order yields the truncation of the larger run
    identity = get_identity(identity_id)
    for side_name, _ in identity.sides:
        wide = build_side(identity, side_name, env, n_value, 35)
        narrow = build_side(identity, side_name, env, n_value, 20)
        assert wide.truncate(20) == narrow, (identity_id, side_name)


def test_sample_env_is_deterministic_and_admissible():
    identity = get_identity("R04")
    first = sample_env(random.Random(11), identity)
    second = sample_env(random.Random(11), identity)
    assert first == second
    assert identity.constraint(first) is None and identity.domain(first)


def test_run_suite_with_zero_samples_is_empty():
    assert run_suite(samples_per_identity=0, order=10, n_max=2) == []


def test_run_suite_samples_every_identity_before_verifying(monkeypatch):
    # R01 draws its 111 environments, then R08 has fewer than 111 distinct
    # admissible ones: the error comes before R01 is verified even once
    import qlab.identities.harness as harness

    calls = []
    monkeypatch.setattr(harness, "verify", lambda *args: calls.append(args))
    with pytest.raises(SampleExhaustionError, match="R08"):
        run_suite(samples_per_identity=111, order=1, ids=["R01", "R08"])
    assert calls == []


def test_run_suite_seed_replay_is_identical():
    kwargs = dict(seed=5, samples_per_identity=1, order=12, n_max=2, ids=["R05", "R09"])
    assert run_suite(**kwargs) == run_suite(**kwargs)


def test_run_suite_reduced_profile_passes():
    reports = run_suite(seed=3, samples_per_identity=1, order=15, n_max=2)
    assert reports and all(r.passed for r in reports)
    covered = {r.identity_id for r in reports}
    assert covered == set(REGISTRY) - {"R35"}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 3])
def test_run_suite_passes_at_tiny_orders(seed, order):
    reports = run_suite(seed=seed, order=order, samples_per_identity=5, n_max=6)
    failed = [(r.identity_id, r.env.as_strings(), r.n_value) for r in reports if not r.passed]
    assert reports and not failed


BOUNDARY = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-7, 3)]


def test_every_admitted_boundary_task_passes():
    # every non-scan identity at T = 6 over the full product of BOUNDARY, which
    # holds zero and unit parameters, c = d (where (c/d)_k vanishes) and c = -1:
    # a task passes or its constraint refuses it, and nothing else raises
    passed = 0
    for identity in REGISTRY.values():
        if identity.scan_only:
            continue
        cutoffs = (1, 2, 3) if identity.kind == FINITE else (None,)
        for values in product(BOUNDARY, repeat=len(identity.params)):
            env = ParamEnv(**dict(zip(identity.params, values)))
            for n_value in cutoffs:
                try:
                    report = verify(identity, env, n_value, 6)
                except ConstraintViolationError:
                    continue
                assert report.passed, report.to_json_dict()
                passed += 1
    assert passed == 10141  # of 37,599 tasks; a stricter constraint would lower it


def test_r19_lhs_at_order_zero_is_the_constant_term():
    # at q^0, (q)_{n-1} and 1 - q^n are 1 and (a)_n is 1 - a, so the constant
    # term is sum_{n>=1} a^n / (1 - a) = a / (1 - a)^2
    a = Fraction(-6, 7)
    side = build_side(get_identity("R19"), "lhs", ParamEnv(a=a), None, 0)
    assert side.coeffs == (a / (1 - a) ** 2,)


@pytest.mark.parametrize("limit", [False, True])
def test_restated_calls_its_builder_at_the_fixed_env_and_cutoff(limit):
    calls = []

    def spy(env, N, one):
        calls.append((env, N, one))
        return one

    def fix(env):
        return ParamEnv(a=env.get("a") + 1)

    one = QSeries.one(7)
    assert restated(spy, fix, limit=limit)(ParamEnv(a=Fraction(1, 2)), 3, one) is one
    assert calls == [(ParamEnv(a=Fraction(3, 2)), 8 if limit else 3, one)]
    calls.clear()
    restated(spy, limit=limit)(ParamEnv(b=Fraction(2)), None, one)  # no fix: env as given
    assert calls == [(ParamEnv(b=Fraction(2)), 8 if limit else None, one)]


def _geometric_fraction(x, m, T):
    """x q^m / (1 - x q^m) from its expansion; the constant x / (1 - x) at m = 0."""
    if m == 0:
        return QSeries.monomial(x / (1 - x), 0, T)
    coeffs = [Fraction(0)] * (T + 1)
    for i in range(1, T // m + 1):
        coeffs[i * m] = x**i
    return QSeries(coeffs)


@pytest.mark.parametrize("m", [0, 1, 3, 9])
def test_lambert_bracket_is_a_difference_of_geometric_fractions(m):
    T = 8
    x, y = Fraction(1, 2), Fraction(-7, 3)
    t = QSeries([Fraction(k + 1, 3) for k in range(T + 1)])
    expected = t * (_geometric_fraction(x, m, T) - _geometric_fraction(y, m, T))
    assert lambert_bracket(t, x, y, m) == expected
    with pytest.raises(ZeroConstantTermError):
        lambert_bracket(t, Fraction(1), Fraction(1), 0)


@pytest.mark.parametrize("a, b", [(Fraction(5, 2), Fraction(-7, 3)), (Fraction(-1, 3), Fraction(1, 2))])
def test_lambert_sides_are_divisor_sums(a, b):
    # sum_{m>=1} f(m) / (1 - q^m) has [q^j] = sum_{m | j} f(m) for j >= 1 and
    # the closed form of sum_{m>=1} f(m) at q^0, inside the domain or not
    T = 12

    def divisor_sums(f):
        return [sum(f(m) for m in range(1, j + 1) if j % m == 0) for j in range(1, T + 1)]

    r01 = build_side(get_identity("R01"), "rhs", ParamEnv(a=a, b=b), None, T)
    head = a / (1 - a) - b / (1 - b)
    assert r01.coeffs == tuple([head] + divisor_sums(lambda m: a**m - b**m))
    r19 = build_side(get_identity("R19"), "rhs", ParamEnv(a=a), None, T)
    assert r19.coeffs == tuple([a / (1 - a) ** 2] + divisor_sums(lambda m: m * a**m))


def test_run_suite_reports_a_corrupted_entry(monkeypatch):
    base = get_identity("R42")
    corrupted = Identity(
        id="R42",
        title=base.title,
        statement=base.statement,
        params=base.params,
        kind=base.kind,
        sides=(("lhs", base.side("lhs")), ("rhs", lambda e, n, one: one.scale(0))),
    )
    monkeypatch.setitem(REGISTRY, "R42", corrupted)
    reports = run_suite(samples_per_identity=1, order=10, n_max=2, ids=["R42"])
    assert [r.n_value for r in reports] == [1, 2]
    assert [r.passed for r in reports] == [False, False]


def test_extraction_check():
    for report in crank_rank_extraction_check(4, 25):
        assert report.passed


def test_positivity_scan_shape_and_n1_pattern():
    rows = positivity_scan(1, 10)
    coeffs = [int(r.coeff) for r in rows]
    assert coeffs == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert all(r.non_negative for r in rows)
    assert positivity_scan(2, 0) == []
    with pytest.raises(ValueError):
        positivity_scan(0, 10)


def test_moment_series_match_enumeration():
    # the crank-vs-series comparison starts at n=2: the combinatorial crank
    # of (1) is -1 while the series convention makes the q^1 coefficient 1
    from qlab.identities.moments import crank_moment_infinite, rank_moment_infinite
    from qlab.partitions import moment, ospt

    order = 16
    c_series = crank_moment_infinite(order)
    r_series = rank_moment_infinite(order)
    for n in range(1, order + 1):
        assert r_series[n] == moment("rank", 1, n, positive_only=True)
        if n >= 2:
            assert c_series[n] == moment("crank", 1, n, positive_only=True)
            assert (c_series - r_series)[n] == ospt(n)


def test_report_json_fields():
    report = verify(get_identity("R01"), ParamEnv(a=Fraction(1, 2), b=Fraction(1, 3)), None, 12)
    d = report.to_json_dict()
    assert set(d) == {
        "id",
        "env",
        "N",
        "T",
        "outcome",
        "first_mismatch_order",
        "lhs_coeff",
        "rhs_coeff",
        "elapsed_ms",
    }
    assert d["env"] == {"a": "1/2", "b": "1/3"}
    assert d["outcome"] == "pass"



def test_r24_sweep_matches_the_per_n_oracles():
    # the sides read every n <= T off the partitions of T; the oracles
    # enumerate each n on its own, so the two enumeration orders must agree
    from qlab.partitions import moment, partition_count, spt

    lhs, rhs = [Fraction(0)], [Fraction(0)]
    for n in range(1, 41):
        lhs.append(Fraction(spt(n)))
        rhs.append(Fraction(n) * partition_count(n) - Fraction(moment("rank", 2, n, False), 2))
    identity = get_identity("R24")
    for T in list(range(31)) + [40]:
        assert build_side(identity, "lhs", ParamEnv(), None, T).coeffs == tuple(lhs[: T + 1])
        assert build_side(identity, "rhs", ParamEnv(), None, T).coeffs == tuple(rhs[: T + 1])


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_r24_side_enumerates_the_partitions_of_T_once(monkeypatch, side):
    import qlab.partitions as partitions
    from qlab.identities import spt_family

    sweep, enumerate_tuples = partitions.partition_profiles, partitions.partition_tuples
    calls = []

    def counting(n, *args, **kwargs):
        calls.append(("profiles", n, args, kwargs))
        return sweep(n, *args, **kwargs)

    def counting_tuples(n, *args, **kwargs):
        calls.append(("tuples", n, args, kwargs))
        return enumerate_tuples(n, *args, **kwargs)

    # the per-n oracles would reach an enumerator through the partitions module
    monkeypatch.setattr(spt_family, "partition_profiles", counting)
    monkeypatch.setattr(partitions, "partition_profiles", counting)
    monkeypatch.setattr(partitions, "partition_tuples", counting_tuples)
    build_side(get_identity("R24"), side, ParamEnv(), None, 12)
    assert calls == [("profiles", 12, (), {})]


# -- nested sums, interchanged or started from their outer term ---------------

NESTED_ORDERS = [0, 1, 12, 40]


def same_value(x: QSeries, y: QSeries) -> bool:
    """Equal to the same order, in the same reduced numerators and denominator."""
    return x.order == y.order and x._nums == y._nums and x._den == y._den


@pytest.mark.parametrize("T", NESTED_ORDERS)
def test_phi_block_equals_its_rebuild_and_multiply_form(T):
    for c, d in ((Fraction(-7, 9), Fraction(5, 8)), (Fraction(2), Fraction(-1, 3))):
        for N in range(1, 7):
            assert same_value(phi_block(c, d, N, QSeries.one(T)), ref_phi_block(c, d, N, T))


@pytest.mark.parametrize("T", NESTED_ORDERS)
def test_r02_nested_side_equals_its_rebuild_and_multiply_form(T):
    identity = get_identity("R02")
    envs = [
        (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 5)),
        (Fraction(1, 2), Fraction(-7, 3), Fraction(2, 5)),
        # the outer sum ends early: (c)_n vanishes for n >= 1 at c = 1, and
        # the ratio b/c is zero at b = 0
        (Fraction(1, 2), Fraction(-1, 3), Fraction(1)),
        (Fraction(-2, 3), Fraction(0), Fraction(3, 5)),
    ]
    for a, b, c in envs:
        side = build_side(identity, "rhs_nested", ParamEnv(a=a, b=b, c=c), None, T)
        assert same_value(side, ref_r02_rhs_nested(a, b, c, T))


@pytest.mark.parametrize("T", NESTED_ORDERS)
def test_r20_harmonic_weight_equals_its_rebuild_and_multiply_form(T):
    identity = get_identity("R20")
    for c, d in ((Fraction(2, 5), Fraction(-7, 3)), (Fraction(-7, 9), Fraction(5, 8))):
        for N in range(1, 7):
            side = build_side(identity, "lhs", ParamEnv(c=c, d=d), N, T)
            assert same_value(side, ref_r20_lhs(c, d, N, T))


@pytest.mark.parametrize("T", NESTED_ORDERS)
def test_double_sums_equal_their_rebuild_and_multiply_forms(T):
    # the d-q block with its prefactor (c/d)_inf (dq)_inf / ((q)_inf (cq)_inf) is,
    # to order T, the 2-phi-1 block at N = 2T; c = -1 is R26's
    for c, d in ((Fraction(-7, 8), Fraction(5, 8)), (Fraction(-1), Fraction(-2))):
        prefactor = div_poch(poch(c / d, 0, None, T) * poch(d, 1, None, T), 1, 1, None)
        expected = div_poch(prefactor, c, 1, None) * ref_dq_block(d, c / d, T)
        assert same_value(phi_block(c, d, 2 * T, QSeries.one(T)), expected)
    for weight in (
        lambda t, n: t.div_binomial(Fraction(3, 4), n).div_binomial(1, n),
        lambda t, n: t.div_binomial(1, 2 * n),
    ):
        assert same_value(_square_sum(QSeries.one(T), weight), ref_square_sum(T, weight))
