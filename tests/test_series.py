from fractions import Fraction
from functools import partial
from itertools import count
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlab.series as series
from qlab.series import (
    PoleInTermRangeError,
    QMonomial,
    QSeries,
    ZeroConstantTermError,
    div_poch,
    double_term_sum,
    phi_series,
    poch,
    poch_ratio,
    q_binomial,
    ratio_terms,
    term_sum,
)
from qlab.identities.common import tail_sum

from _oracles import (
    RefSeries,
    _ref_apply,
    convolve,
    gaussian_binomial_poly,
    pentagonal_coeffs,
    ref_add,
    ref_div_binomial,
    ref_double_term_sum,
    ref_first_difference,
    ref_inverse,
    ref_mul_binomial,
    ref_scale,
    ref_shift,
    ref_sub,
    ref_tail_sum,
    ref_term_sum,
    ref_truncate,
)

T = 15

# drawn by denominator: much cheaper to generate than st.fractions, same values
small_rats = st.integers(1, 5).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda n: Fraction(n, d))
)
series_st = st.lists(small_rats, min_size=T + 1, max_size=T + 1).map(QSeries)


def qs(*coeffs) -> QSeries:
    return QSeries([Fraction(c) for c in coeffs])


# -- addition -----------------------------------------------------------


def test_add_cancellation():
    assert qs(1, 1) + qs(1, -1) == qs(2, 0)


def test_add_identity():
    y = qs(3, -2, 5)
    assert QSeries.zero(2) + y == y


def test_add_pentagonal_negation_is_zero():
    euler = QSeries(pentagonal_coeffs(5))
    assert (euler + (-euler)).is_zero()


# -- multiplication ------------------------------------------------------


def test_mul_geometric_telescope():
    t = 9
    geo = QSeries([Fraction(1)] * (t + 1))
    assert qs(*([1, -1] + [0] * (t - 1))) * geo == QSeries.one(t)


def test_mul_identity():
    y = qs(2, 0, -7, 1)
    assert QSeries.one(3) * y == y


def test_mul_by_inverse_of_small_product():
    x = poch(1, 1, 2, 20)  # (1-q)(1-q^2)
    assert x * x.inverse() == QSeries.one(20)


def test_mismatched_orders_truncate_to_min():
    a = QSeries.one(10)
    b = qs(1, 2, 3)
    assert (a + b).order == 2
    assert (a * b).order == 2


# -- inversion ------------------------------------------------------------


def test_inverse_geometric():
    inv = qs(1, -1, 0, 0).inverse()
    assert inv == qs(1, 1, 1, 1)


def test_inverse_of_one():
    assert QSeries.one(8).inverse() == QSeries.one(8)


def test_inverse_of_qq2_multiplies_back():
    x = qs(1, -1, -1, 1, *([0] * 17))  # (q;q)_2 to q^20
    assert x * x.inverse() == QSeries.one(20)


def test_inverse_needs_nonzero_constant():
    with pytest.raises(ZeroConstantTermError):
        qs(0, 1).inverse()


@pytest.mark.parametrize("build", [
    lambda: QSeries([0.5]),
    lambda: QSeries.monomial(0.5, 1, 3),
    lambda: QSeries.one(3).scale(0.5),
    lambda: QSeries.one(3).apply_ratio(0.5),
    lambda: QSeries.one(3).apply_ratio(1, 1, up=((Fraction(1, 2), 1), (0.5, 2))),
    lambda: QSeries.one(3).apply_ratio(down=((0.5, 0),)),
    lambda: QSeries.one(3).mul_binomial(0.5, 1),
    lambda: QSeries.one(3).div_binomial(0.5, 1),
    lambda: QSeries.one(3).div_binomial(0.5, 9),  # a factor that is 1 to order T is read too
    lambda: poch_ratio(QSeries.one(3), up=((0.5, 1, None),)),
    lambda: poch_ratio(QSeries.one(3), down=((Fraction(1, 3), 1, 2), (0.25, 1, None))),
])
def test_a_float_coefficient_is_a_type_error(build):
    with pytest.raises(TypeError, match="exact int or Fraction"):
        build()


# -- Pochhammer -----------------------------------------------------------


def test_pochhammer_empty_product():
    assert poch(Fraction(5, 7), 3, 0, 10) == QSeries.one(10)


def test_pochhammer_q_two_factors():
    assert poch(Fraction(1), 1, 2, 6) == qs(1, -1, -1, 1, 0, 0, 0)


def test_pochhammer_infinite_matches_pentagonal_oracle():
    expected = QSeries(pentagonal_coeffs(7))
    assert poch(Fraction(1), 1, None, 7) == expected
    assert poch(1, 1, None, 30) == QSeries(pentagonal_coeffs(30))


@settings(max_examples=40, deadline=None)
@given(small_rats, st.integers(0, 6), st.integers(0, 6))
def test_pochhammer_cocycle(x, n, m):
    # (x)_n * (x q^n)_{n+m-n} = (x)_{n+m}
    order = 12
    left = poch(x, 0, n, order) * poch(x, n, m, order)
    assert left == poch(x, 0, n + m, order)


def test_div_poch_roundtrip():
    s = poch(Fraction(2, 3), 1, 4, 18)
    assert div_poch(s, Fraction(2, 3), 1, 4) == QSeries.one(18)


# -- Gaussian binomials ----------------------------------------------------


def test_q_binomial_smallest():
    assert q_binomial(2, 1, 5) == qs(1, 1, 0, 0, 0, 0)


def test_q_binomial_4_2_against_product_oracle():
    expected = QSeries(gaussian_binomial_poly(4, 2))
    assert q_binomial(4, 2, 10) == expected
    assert q_binomial(4, 2, 10) == qs(1, 1, 2, 1, 1, 0, 0, 0, 0, 0, 0)


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(3, 5, 10).is_zero()
    assert q_binomial(3, -1, 10).is_zero()


@pytest.mark.parametrize("n_top", range(0, 9))
def test_q_binomial_properties(n_top):
    order = 40
    for n_bot in range(0, n_top + 1):
        poly = q_binomial(n_top, n_bot, order)
        # symmetry
        assert poly == q_binomial(n_top, n_top - n_bot, order)
        # non-negative integer coefficients, degree n(N-n)
        degree = max((k for k, c in enumerate(poly.coeffs) if c != 0), default=0)
        assert degree == n_bot * (n_top - n_bot)
        assert all(c >= 0 and c.denominator == 1 for c in poly.coeffs)
        # both Pascal recurrences
        if 0 < n_bot < n_top:
            first = q_binomial(n_top - 1, n_bot - 1, order) + q_binomial(
                n_top - 1, n_bot, order
            ).shift(n_bot)
            second = q_binomial(n_top - 1, n_bot - 1, order).shift(
                n_top - n_bot
            ) + q_binomial(n_top - 1, n_bot, order)
            assert poly == first
            assert poly == second


# -- generic hypergeometric summation ---------------------------------------


def test_phi_series_trivial():
    assert phi_series([], [], QMonomial(Fraction(0), 0), QSeries.one(10)) == QSeries.one(10)


def test_phi_series_chu_vandermonde_instance():
    # the denominator-cleared instance: for M >= 0,
    # sum_{j=0}^{M} (d/c)_j q^j (q)_M (cq)_{M-j} c^j / ((q)_j (q)_{M-j} (cq)_M)
    # = (dq)_M / (cq)_M
    order = 30
    c, d = Fraction(3, 5), Fraction(-2, 7)
    for m_top in range(0, 5):
        total = QSeries.zero(order)
        for j in range(0, m_top + 1):
            t = poch(d / c, 0, j, order) * poch(1, 1, m_top, order)
            t = t * poch(c, 1, m_top - j, order)
            t = t.scale(c**j).shift(j)
            t = div_poch(t, 1, 1, j)
            t = div_poch(t, 1, 1, m_top - j)
            t = div_poch(t, c, 1, m_top)
            total = total + t
        expected = div_poch(poch(d, 1, m_top, order), c, 1, m_top)
        assert total == expected, f"mismatch at M={m_top}"


def test_phi_series_heine_pair_with_monomial_argument():
    # 2phi1(alpha, beta; gamma; z) with z = (1/2) q: both routes agree
    order = 30
    alpha, beta, gamma = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    z = QMonomial(Fraction(1, 2), 1)
    left = phi_series(
        [QMonomial(alpha, 0), QMonomial(beta, 0)], [QMonomial(gamma, 0)], z, QSeries.one(order)
    )
    # (beta)_inf (alpha z)_inf / ((gamma)_inf (z)_inf)
    #   * 2phi1(gamma/beta, z; alpha z; beta), with tail in the scalar argument
    prefactor = poch(beta, 0, None, order) * poch(alpha * z.coeff, z.exp, None, order)
    prefactor = div_poch(prefactor, gamma, 0, None)
    prefactor = div_poch(prefactor, z.coeff, z.exp, None)
    # inner parameters (z)_n and (alpha z)_n carry q: build term-by-term
    total = QSeries.zero(order)
    term = QSeries.one(order)
    total = total + term
    for n in range(1, order + 2):
        term = term.mul_binomial(gamma / beta, n - 1)
        term = term.mul_binomial(z.coeff, z.exp + n - 1)
        term = term.div_binomial(alpha * z.coeff, z.exp + n - 1)
        term = term.div_binomial(1, n)
        term = term.scale(beta)
        if n <= order:
            total = total + term
    right = prefactor * (total + term.div_binomial(beta, 0))
    assert left == right


def test_phi_series_pole_detection():
    with pytest.raises(PoleInTermRangeError):
        phi_series(
            [QMonomial(Fraction(1, 2), 1)],
            [QMonomial(Fraction(1), 0)],
            QMonomial(Fraction(1), 1),
            QSeries.one(10),
        )


def test_phi_series_scalar_argument_needs_explicit_terms():
    with pytest.raises(ValueError):
        phi_series([QMonomial(Fraction(1, 2), 0)], [], QMonomial(Fraction(1, 3), 0), QSeries.one(10))


# -- term-ratio summation ----------------------------------------------------


def test_term_sum_stops_at_the_first_vanishing_term():
    # sum_{n>=0} q^{n(n+1)/2} / (q)_n: term 5 is the first with n(n+1)/2 > 10,
    # so it is zero to order 10 and no ratio is read past it
    reads = []

    def ratio(n):
        reads.append(n)
        return 1, n, (), ((1, n),)

    total = QSeries.one(10) + term_sum(QSeries.one(10), ratio, 1)
    expected = QSeries.zero(10)
    for n in range(5):
        expected = expected + div_poch(QSeries.monomial(1, n * (n + 1) // 2, 10), 1, 1, n)
    assert total == expected
    assert reads == [1, 2, 3, 4, 5]


def test_term_sum_stop_is_inclusive_and_empty_past_it():
    # sum_{n=1}^{3} n x^n with R_n = x and weight n
    x = Fraction(2, 3)

    def ratio(n):
        return x, 0, (), ()

    total = term_sum(QSeries.one(4), ratio, start=1, stop=3, weight=lambda n: (n, (), ()))
    assert total == QSeries.monomial(x + 2 * x**2 + 3 * x**3, 0, 4)
    assert term_sum(QSeries.one(4), ratio, start=2, stop=1).is_zero()


def test_weighted_term_sum_makes_one_kernel_call_per_index(monkeypatch):
    # K = 6 indices with a weight whose scalar and factors change with n: six
    # apply_ratio calls and no sum_of; the value is the forward sum's
    calls = []
    apply_ratio = QSeries.apply_ratio

    def counted(self, *args, **kwargs):
        calls.append(args)
        return apply_ratio(self, *args, **kwargs)

    def ratio(n):
        return Fraction(-2, 3), n, ((Fraction(1, 2), n),), ((1, n),)

    def weight(n):
        return n, ((3, n + 1),), ((Fraction(-1, 4), n),)

    monkeypatch.setattr(QSeries, "apply_ratio", counted)
    monkeypatch.setattr(QSeries, "sum_of", None)
    total = term_sum(QSeries.one(30), ratio, 1, 6, weight)
    assert len(calls) == 6
    monkeypatch.undo()
    step = lambda t, n: t.apply_ratio(*ratio(n))  # noqa: E731
    forward = ref_term_sum(step(QSeries.one(30), 1), step, 1, 6,
                           lambda t, n: t.apply_ratio(weight(n)[0], 0, *weight(n)[1:]))
    assert total == forward


# (scalar, shift, up, down) of one index: fractional and zero scalars, shifts
# 0..3, and factors at e = 0, including (1 - q^0) above; no (1 - q^0) below
ratio_data_st = st.tuples(
    small_rats,
    st.integers(0, 3),
    st.lists(st.tuples(small_rats, st.integers(0, 5)), max_size=2),
    st.lists(st.tuples(small_rats, st.integers(0, 5)), max_size=2).map(
        lambda fs: [(c, e) for c, e in fs if (c, e) != (1, 0)]
    ),
)
# (scalar, up, down) of a weight, never zero
weight_data_st = st.tuples(
    small_rats.filter(bool),
    st.lists(st.tuples(small_rats, st.integers(0, 5)).filter(lambda f: f != (1, 0)), max_size=2),
    st.lists(st.tuples(small_rats, st.integers(0, 5)).filter(lambda f: f != (1, 0)), max_size=2),
)


def _drawn(data, start, order):
    """The n-th of the drawn data from start, and past them a ratio whose
    shift ends the sum."""
    return lambda n: data[n - start] if n - start < len(data) else (1, order + 1, (), ())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 8)),
    st.lists(ratio_data_st, min_size=1, max_size=8),
    st.one_of(st.none(), st.lists(weight_data_st, min_size=9, max_size=9)),
)
# stop < start: an empty sum
@example(6, 2, 1, [(Fraction(1, 2), 1, [], [])], None)
# a zero scalar at index 1 and (1 - q^0) above at index 2 each end the sum
@example(6, 0, None, [(2, 0, [], []), (0, 1, [], [(3, 1)]), (1, 1, [], [])], [(1, [], [])] * 9)
@example(6, 1, 5, [(Fraction(-3, 2), 0, [(2, 1)], []), (1, 1, [(1, 0)], []), (2, 1, [], [])], None)
def test_term_sum_matches_a_fold_of_ref_add(order, start, stop, ratios, weights):
    # the reference steps forward by closures, one mul_binomial or
    # div_binomial per factor, and folds the terms with ref_add
    ratio = _drawn(ratios, start, order)
    weight = weights and _drawn(weights, start, order)
    step = lambda t, n: _ref_apply(t, *ratio(n))  # noqa: E731
    ref_weight = weights and (lambda t, n: _ref_apply(t, weight(n)[0], 0, *weight(n)[1:]))
    for one in (QSeries.one(order), RefSeries.one(order)):
        expected = ref_term_sum(step(RefSeries.one(order), start), step, start, stop, ref_weight)
        total = term_sum(one, ratio, start, stop, weight)
        assert list(total.coeffs) == list(expected.coeffs)


def _forward_sum(one, ratio, start, stop, weight):
    """term_sum's sum as the forward stream takes it, one term at a time."""
    terms = ratio_terms(one, ratio, start, stop)
    if weight:
        terms = (t.apply_ratio(weight(n)[0], 0, *weight(n)[1:]) for n, t in enumerate(terms, start))
    return QSeries.sum_of(terms, one.order)


def _outcome(build):
    try:
        return as_fractions(build())
    except Exception as err:
        return type(err).__name__, str(err)


# factors that may raise: e = -1, and (1 - q^0) below
raising_factors_st = st.lists(st.tuples(st.sampled_from([1, 2, Fraction(1, 2)]), st.integers(-1, 3)), max_size=2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 8),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 6)),
    st.lists(st.tuples(small_rats, st.integers(0, 3), raising_factors_st, raising_factors_st),
             min_size=1, max_size=6),
    # a weight never vanishes: no zero scalar and no (1 - q^0) above
    st.one_of(st.none(), st.lists(st.tuples(
        small_rats.filter(bool),
        st.lists(st.tuples(st.sampled_from([2, Fraction(1, 2)]), st.integers(-1, 3)), max_size=2),
        raising_factors_st,
    ), min_size=7, max_size=7)),
)
# the first error is at index 1, before the (1 - q^0) below at index 2
@example(6, 1, None, [(1, 1, [], []), (1, 1, [(2, -1)], []), (1, 1, [], [(1, 0)])], None)
# the ratio that ends the sum by its shift is still applied, and its factor (1 - 1) raises
@example(3, 0, None, [(1, 2, [], []), (1, 2, [], [(1, 0)])], None)
# a weight's (1 - q^0) below raises before the next ratio's negative exponent
@example(6, 0, None, [(1, 1, [], []), (1, 1, [(2, -1)], [])], [(1, [], [(1, 0)])] * 7)
def test_term_sum_raises_what_the_forward_stream_raises(order, start, stop, ratios, weights):
    ratio = _drawn(ratios, start, order)
    weight = weights and _drawn(weights, start, order)
    one = QSeries.one(order)
    assert _outcome(lambda: term_sum(one, ratio, start, stop, weight)) == _outcome(
        lambda: _forward_sum(one, ratio, start, stop, weight))


def test_term_sum_raises_a_ratio_error_before_a_later_closure_error():
    # index 2's ratio has a negative exponent, and reading the weight of
    # index 3 raises: the forward stream applies ratio 2 first
    def ratio(n):
        return 1, 1, [(2, -1)] if n == 2 else [], []

    def weight(n):
        return 1 // (3 - n), (), ()

    with pytest.raises(ValueError, match="non-negative"):
        term_sum(QSeries.one(8), ratio, 1, 5, weight)


# -- double sums (double_term_sum) and strided sums ------------------------------


def _block(c, d, N):
    """The outer and inner ratios of phi_sum.block_sum, the 2-phi-1 block."""

    def outer(k):
        return d, 2 * k, ((c / d, k - 1), (1, N - k + 1)), ((1, k), (d, k))

    def inner(k, j):
        if not j:
            return 1, 0, (), ((1, k),)
        return -c, k + j, ((1, k + j - 1), (1, N - k - j + 1)), ((d, k + j), (1, j))

    return outer, inner


def _r31_block(c):
    """The outer and inner ratios of R31's block, both sums unbounded."""

    def outer(k):
        return -c, 3 * k - 1, (), ((1, k), (c, k))

    def inner(k, j):
        return (c, 2 * (j + k) - 1, (), ((c, j + k), (1, j))) if j else (1, 0, (), ((1, k),))

    return outer, inner


def _raising_inner(k, j):
    """An inner sum whose every ratio past j = 0 divides by 1 - q^0."""
    return (1, 0, (), ((1, k),)) if not j else (1, 1, (), ((1, 0),))


def _double_cases():
    c, d = Fraction(4, 7), Fraction(-5, 3)
    block, r31 = _block(c, d, 5), _r31_block(Fraction(2, 5))
    return {
        # (outer, inner, start, stop, inner_stop)
        "block": (*block, 1, 5, lambda k: 5 - k),
        "unbounded": (*r31, 1, None, None),
        # R20 at c = d: (c/d)_1 = 1 - q^0, the zero series; no inner sum is read
        "zero-at-first-factor": (_block(d, d, 5)[0], _raising_inner, 1, 5, lambda k: 5 - k),
        "zero-at-first-scalar": (lambda k: (0 if k == 1 else 2, 1, (), ()), _raising_inner, 1, None, None),
        "inner-stop-0": (*block, 1, 5, lambda k: 0),
        # bounded far past the terms the truncation order keeps
        "inner-past-its-bound": (*r31, 1, 6, lambda k: 10**6),
        "empty": (*block, 2, 1, lambda k: 5 - k),
    }


@pytest.mark.parametrize("order", [0, 1, 2, 5, 40])
@pytest.mark.parametrize("case", list(_double_cases()))
def test_double_term_sum_matches_a_fold_of_ref_add(order, case):
    outer, inner, start, stop, inner_stop = _double_cases()[case]
    expected = ref_double_term_sum(RefSeries.one(order), outer, inner, start, stop, inner_stop)
    for one in (QSeries.one(order), RefSeries.one(order)):
        total = double_term_sum(one, outer, inner, start, stop, inner_stop)
        assert type(total) is type(one) and total.order == order
        assert list(total.coeffs) == list(expected.coeffs)
    if case.startswith("zero"):
        assert expected.is_zero()


def test_double_term_sum_takes_each_inner_sum_only_to_order_t_minus_v(monkeypatch):
    # the block's outer term k is O(q^{k(k+1)}): at T = 12 the inner sums
    # of k = 1, 2, 3 are read to orders 10, 6 and 0, and k = 4 ends the sum
    orders = []
    inner_sum = series.term_sum

    def counted(one, *args):
        orders.append(one.order)
        return inner_sum(one, *args)

    monkeypatch.setattr(series, "term_sum", counted)
    outer, inner = _block(Fraction(4, 7), Fraction(-5, 3), 6)
    double_term_sum(QSeries.one(12), outer, inner, 1, 6, lambda k: 6 - k)
    assert orders == [10, 6, 0]


def _forward_double_sum(one, outer, inner, start, stop, inner_stop):
    """double_term_sum's sum as the forward stream takes it: each inner sum
    stepped from its outer term."""

    def inner_sum(k, t):
        return QSeries.sum_of(ratio_terms(t, partial(inner, k), 0, inner_stop and inner_stop(k)), one.order)

    return QSeries.sum_of(map(inner_sum, count(start), ratio_terms(one, outer, start, stop)), one.order)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 8),
    st.one_of(st.none(), st.integers(1, 5)),
    st.lists(st.tuples(small_rats, st.integers(0, 3), raising_factors_st, raising_factors_st),
             min_size=1, max_size=5),
    st.lists(st.tuples(small_rats, st.integers(0, 3), raising_factors_st, raising_factors_st),
             min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(0, 3)),
)
# the inner sum of k = 1 raises before the outer ratio of k = 2 does
@example(6, None, [(1, 1, [], []), (1, 1, [(2, -1)], [])], [(1, 0, [], []), (1, 1, [], [(1, 0)])], None)
# the outer ratio of k = 1 raises before its inner sum would
@example(6, None, [(1, 1, [], [(1, 0)])], [(1, 0, [(2, -1)], [])], None)
def test_double_term_sum_raises_what_the_forward_sum_raises(order, stop, outers, inners, inner_stop):
    outer = _drawn(outers, 1, order)
    inner = lambda k, j: inners[j] if j < len(inners) else (1, order + 1, (), ())  # noqa: E731
    bound = None if inner_stop is None else (lambda k: inner_stop)
    one = QSeries.one(order)
    assert _outcome(lambda: double_term_sum(one, outer, inner, 1, stop, bound)) == _outcome(
        lambda: _forward_double_sum(one, outer, inner, 1, stop, bound))


# -- sums whose terms never vanish (tail_sum) -----------------------------------


def _divisor_sum(order, x, start=1):
    """sum_{n>=start} x^n / (1 - q^n): ratio x, x^start at start, weight 1/(1 - q^n)."""
    return tail_sum(
        QSeries.one(order),
        lambda n: (x**start if n == start else x, 0, (), ()),
        start=start,
        weight=lambda n: (1, (), ((1, n),)),
    )


@pytest.mark.parametrize("order", [0, 1, 5])
def test_tail_sum_geometric_tail(order):
    # at q^0 the value is x/(1-x) even when no factor of index 1 is near
    x = Fraction(-6, 7)
    total = _divisor_sum(order, x)
    assert total[0] == x / (1 - x)
    # the q^k coefficient is sum_{m | k} x^m
    for k in range(1, order + 1):
        assert total[k] == sum(x**m for m in range(1, k + 1) if k % m == 0)


def test_tail_sum_with_the_far_index_at_start():
    # from n = 4 at T = 6 every factor is far: the first term's weight and
    # the closed form, x^4/(1-x) + x^4 q^4 + x^5 q^5 + x^6 q^6
    x = Fraction(2, 5)
    expected = [x**4 / (1 - x), 0, 0, 0, x**4, x**5, x**6]
    assert _divisor_sum(6, x, start=4).coeffs == tuple(expected)


def test_tail_sum_at_ratio_zero_adds_nothing_past_the_first_term():
    one, first = QSeries.one(4), (Fraction(1, 3), 1, ((2, 1),), ((3, 2),))

    def ratio_from(start):
        return lambda n: first if n == start else (0, 0, ((Fraction(1, 2), n),), ((3, n - 1),))

    assert tail_sum(one, ratio_from(0)) == one.apply_ratio(*first)
    weight = lambda n: (1, ((2, n + 1),), ())  # noqa: E731
    assert tail_sum(one, ratio_from(1), start=1, weight=weight) == one.apply_ratio(*first).mul_binomial(2, 2)


def test_tail_sum_at_ratio_one_is_rejected():
    with pytest.raises(ZeroConstantTermError):
        tail_sum(QSeries.one(3), lambda n: (1, 0, (), ()))


def test_tail_sum_needs_one_ratio_past_its_near_factors():
    # at T = 4 the factors from index 3 on are far: x = 1/2 there, so index
    # 4's scalar 2 or a shift at index 4 cannot be summed in closed form
    for late in ((2, 0), (Fraction(1, 2), 1)):
        with pytest.raises(ValueError, match="tail_sum"):
            tail_sum(QSeries.one(4), lambda n: (*(late if n == 4 else (Fraction(1, 2), 0)), ((3, n),), ()))


# a factor (c, n + offset) of ratio n, or of weight n
step_factors_st = st.lists(st.tuples(small_rats, st.integers(-1, 1)), max_size=3)
weight_factors_st = st.lists(st.tuples(small_rats, st.integers(0, 1)), max_size=2)


def _not_one(factors):
    return [(c, off) for c, off in factors if c != 1]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 12),
    st.tuples(small_rats, st.integers(0, 2), step_factors_st),
    small_rats.filter(lambda x: x != 1),
    st.sampled_from([0, 1]),
    step_factors_st,
    step_factors_st.map(_not_one),
    st.one_of(st.none(), st.tuples(weight_factors_st, weight_factors_st.map(_not_one))),
)
# T = 6 and two factors at e = 3 in ratio 3: they are near, as their product has q^6
@example(6, (Fraction(1), 0, []), Fraction(1, 2), 0, [(Fraction(1, 3), 0)], [(Fraction(2), 0)], None)
def test_tail_sum_matches_the_stepped_reference(order, first, x, start, up, down, weighted):
    # the reference steps every term up to the last index with a factor e <= T,
    # one naive per-coefficient kernel call per factor, and sums the rest
    # as a geometric series; a down factor's c is not 1, so no e = 0 pole.
    # The first term is its own ratio, with factors at e = start + offset + 1 >= 0
    def ratio(n):
        if n == start:
            scalar, shift, factors = first
            return scalar, shift, [(c, n + off + 1) for c, off in factors], []
        return x, 0, [(c, n + off) for c, off in up], [(c, n + off) for c, off in down]

    weight = None
    if weighted is not None:
        def weight(n):  # never zero: no (1 - q^0) above
            up, down = ([(c, n + off) for c, off in side] for side in weighted)
            return 1, [f for f in up if f != (1, 0)], down

    total = tail_sum(QSeries.one(order), ratio, start, weight)
    expected = ref_tail_sum(RefSeries.one(order), ratio, start, weight)
    assert as_fractions(total) == list(expected.coeffs)


# -- ring laws (property suite) ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(series_st, series_st)
def test_mul_commutative(x, y):
    assert x * y == y * x


@settings(max_examples=40, deadline=None)
@given(series_st, series_st, series_st)
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None)
@given(series_st, series_st, series_st)
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@settings(max_examples=40, deadline=None)
@given(series_st)
def test_inverse_roundtrip(x):
    if x.constant_term == 0:
        with pytest.raises(ZeroConstantTermError):
            x.inverse()
    else:
        assert x * x.inverse() == QSeries.one(T)


# -- misc helpers ------------------------------------------------------------


def test_shift_and_scale():
    s = qs(1, 2, 3)
    assert s.shift(1) == qs(0, 1, 2)
    assert s.scale(Fraction(1, 2)) == qs(Fraction(1, 2), 1, Fraction(3, 2))


# -- kernels against the per-coefficient Fraction reference -------------------

fractions_st = st.integers(1, 7).flatmap(
    lambda d: st.integers(-5 * d, 5 * d).map(lambda n: Fraction(n, d))
)
# orders 0..12, including all-zero and all-integer series
coeff_lists = st.one_of(
    st.lists(fractions_st, min_size=1, max_size=13),
    st.lists(st.integers(-9, 9).map(Fraction), min_size=1, max_size=13),
    st.integers(0, 12).map(lambda t: [Fraction(0)] * (t + 1)),
)
# integer and non-integer scalars, negative numerators and zero included
scalars = st.one_of(st.integers(-4, 4), fractions_st)
exponents = st.integers(0, 15)  # e = 0 and e > T both occur


def as_fractions(s: QSeries) -> list:
    """The coefficients, checking each is a lowest-terms Fraction."""
    assert s._den > 0 and gcd(s._den, *s._nums) == 1
    for c in s.coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    return list(s.coeffs)


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists)
def test_ring_kernels_match_reference(a, b):
    x, y = QSeries(a), QSeries(b)
    assert as_fractions(x + y) == ref_add(a, b)
    assert as_fractions(x - y) == ref_sub(a, b)
    assert as_fractions(-x) == [-c for c in a]
    assert as_fractions(x * y) == convolve(a, b)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, scalars, exponents)
def test_linear_kernels_match_reference(a, value, k):
    x = QSeries(a)
    assert as_fractions(x.scale(value)) == ref_scale(a, Fraction(value))
    assert as_fractions(x.shift(k)) == ref_shift(a, k)
    assert as_fractions(x.truncate(k)) == ref_truncate(a, k)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_inverse_matches_reference(a):
    x = QSeries(a)
    if a[0] == 0:
        with pytest.raises(ZeroConstantTermError):
            x.inverse()
    else:
        assert as_fractions(x.inverse()) == ref_inverse(a)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, scalars, exponents)
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 2, 0)
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], Fraction(-7, 3), 0)
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], Fraction(7, 3), 0)
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], Fraction(1, 2), 3)
@example([Fraction(0)] * 4, Fraction(-7, 3), 1)
def test_binomial_kernels_match_reference(a, c, e):
    x = QSeries(a)
    assert as_fractions(x.mul_binomial(c, e)) == ref_mul_binomial(a, Fraction(c), e)
    if e == 0 and c == 1:
        with pytest.raises(ZeroConstantTermError):
            x.div_binomial(c, e)
    else:
        assert as_fractions(x.div_binomial(c, e)) == ref_div_binomial(a, Fraction(c), e)


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 13))
def test_first_difference_matches_reference(a, tail, k):
    # b shares a prefix with a, so its denominator can differ from a's
    # while the common coefficients agree
    b = a[:k] + tail
    x, y = QSeries(a), QSeries(b)
    expected = ref_first_difference(a, b)
    assert x.first_difference(y) == expected
    assert y.first_difference(x) == expected
    assert (x == y) == (expected is None)


factors = st.lists(st.tuples(scalars, exponents), max_size=4)
# 13 coefficients, T = 12
B13 = [Fraction(c) for c in "1/2 3 -5/7 0 2/9 -1 4/5 1/3 0 -7/2 6 1/7 -2/3".split()]
HIGH = [Fraction(0)] * 10 + [Fraction(1, 2), Fraction(-3), Fraction(5, 7)]  # zero below q^10
MID = [Fraction(0)] * 3 + B13[:10]  # zero below q^3: a tail of order 9


@settings(max_examples=150, deadline=None)
@given(coeff_lists, scalars, st.one_of(st.just(0), exponents), factors, factors)
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 0, 0, [(2, 1)], [(Fraction(1, 3), 1)])
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], Fraction(-7, 3), 3, [], [(3, 1)])
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 1, 0, [(1, 0)], [(1, 1)])
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 2, 0, [(-3, 0)], [(Fraction(7, 3), 0)])
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 1, 1, [(Fraction(5, 2), 9)], [(-2, 4)])
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 1, 0, [(2, 2)], [(Fraction(3, 4), 2)])
@example([Fraction(1, 2), Fraction(3), Fraction(-5, 7)], 0, 1, [], [(1, 0)])
# substitution q = 12 x: the q-powers 3^18 * 4^12 exceed 12^12
@example(B13, 1, 0, [], [(Fraction(2, 3), 1), (Fraction(-3, 4), 1), (Fraction(2, 3), 2)])
# a tail of order 2 after ten zeros: the factor (2, 3) is skipped
@example(HIGH, 1, 0, [(2, 3), (Fraction(1, 2), 1)], [(Fraction(-1, 3), 2)])
# shift 9 leaves a tail of order 3: the factor (1/2, 5) is skipped
@example(B13, 2, 9, [(Fraction(1, 2), 5)], [(3, 1)])
# the shift leaves only zeros: an empty tail, factors e = 0 and e >= 1 alike
@example(HIGH, 1, 3, [(2, 1)], [(Fraction(1, 3), 1), (Fraction(3, 5), 0)])
# scalar and shift only: no factors, so no scan for the tail
@example(HIGH, Fraction(-7, 3), 1, [], [])
# 2e = T' + 1 takes one step of the recurrence (K = 1), 2e = T' takes the
# full one (K = 2), each with an integer and a fractional c
@example(B13, 1, 1, [], [(3, 6)])
@example(B13, 1, 1, [], [(Fraction(2, 3), 6)])
@example(B13, 1, 0, [], [(3, 6)])
@example(B13, 1, 0, [], [(Fraction(2, 3), 6)])
# the scalar and an e = 0 constant go into a fractional K = 1 division with
# no factor above, into the q^K scaling of a fractional K = 5 one, into an
# integer factor above, and into a pass of their own before an integer division
@example(B13, Fraction(-7, 3), 1, [(Fraction(2, 5), 0)], [(Fraction(2, 3), 6)])
@example(B13, Fraction(-7, 3), 1, [(Fraction(2, 5), 0)], [(Fraction(2, 3), 2)])
@example(B13, Fraction(-7, 3), 1, [(Fraction(2, 5), 0), (2, 1)], [(Fraction(3, 5), 0)])
@example(B13, Fraction(-7, 3), 1, [(Fraction(2, 5), 0)], [(Fraction(3, 5), 0), (3, 2)])
# c = 1 divisions after leading zeros: e = 1 and e = 4 by the recurrence,
# e = 5 in one step; c = -1 above
@example(MID, 1, 0, [], [(1, 1), (1, 4), (1, 5)])
@example(MID, 1, 0, [(-1, 2)], [(1, 3)])
# scalar 0 with factors, e = 0 ones included
@example(B13, 0, 2, [(Fraction(1, 2), 0), (2, 1)], [(Fraction(1, 3), 6), (Fraction(3, 5), 0)])
# six factors with 2e > T' = 12 in one pass: above and below, integer and
# fractional c with different denominators, and c = 1 and c = -1
@example(B13, 1, 0, [(3, 7), (Fraction(2, 5), 9), (1, 12)], [(Fraction(-3, 4), 8), (-1, 10), (2, 11)])
# integer c and scalar 1: nothing scales, so the passes write into the tail
# itself, and c = 1 above and below add and subtract without a multiply
@example(B13, 1, 0, [(1, 7), (1, 8), (3, 9)], [(1, 10), (-2, 11), (1, 12)])
# runs of one c over consecutive e as window sums: 7-8 and 10-12 above with
# a gap at 9, and 7-12 below; single factors of c = -1 and 1 in between
@example(B13, 1, 0, [(Fraction(2, 3), e) for e in (7, 8, 10, 11, 12)] + [(-1, 9)],
         [(Fraction(-1, 2), e) for e in range(7, 13)] + [(1, 12)])
# the edges: at T' = 12, e = 6 (2e = T') keeps its own pass and e = 7 joins
# the combined one; at T' = 11 (shift 1), e = 6 (2e = T' + 1) joins it
@example(B13, 1, 0, [(-2, 7), (1, 8)], [(3, 6), (Fraction(2, 3), 7)])
@example(B13, 1, 1, [(-2, 6), (1, 8)], [(Fraction(2, 3), 5), (Fraction(2, 3), 6)])
# the combined pass takes the scalar and the e = 0 constants, alone and
# followed by an integer factor above and a fractional factor below
@example(B13, Fraction(-7, 3), 1, [(Fraction(2, 5), 0), (2, 7), (2, 8)], [(Fraction(3, 5), 0), (-1, 9)])
@example(B13, Fraction(-7, 3), 0, [(Fraction(2, 5), 0), (2, 7), (2, 8), (3, 2)],
         [(Fraction(3, 5), 0), (-1, 9), (Fraction(1, 3), 3)])
# leading zeros and a shift: a tail of order 8, whose factors with e >= 5 share the pass
@example(MID, 2, 1, [(2, 5), (2, 6), (2, 7), (Fraction(1, 2), 1)], [(Fraction(1, 3), 8)])
def test_apply_ratio_matches_reference(a, scalar, shift, up, down):
    # the reference applies the scalar, the shift and each factor in turn
    expected = ref_shift(ref_scale(a, Fraction(scalar)), shift)
    for c, e in up:
        expected = ref_mul_binomial(expected, Fraction(c), e)
    x = QSeries(a)
    if (1, 0) in down:
        with pytest.raises(ZeroConstantTermError):
            x.apply_ratio(scalar, shift, up, down)
        return
    for c, e in down:
        expected = ref_div_binomial(expected, Fraction(c), e)
    assert as_fractions(x.apply_ratio(scalar, shift, up, down)) == expected


@settings(max_examples=100, deadline=None)
@given(coeff_lists, scalars, st.integers(0, 3), factors, factors, scalars,
       st.one_of(st.none(), st.integers(0, 15)))
# the order extends a tail of order 2 after ten zeros, and a division runs into the zeros
@example(HIGH, 1, 0, [], [(Fraction(1, 2), 1)], Fraction(-2, 3), 15)
# the order truncates, and the constant lands on the shift's leading zeros
@example(B13, Fraction(3, 5), 2, [(2, 1)], [], 7, 4)
def test_apply_ratio_adds_the_constant_at_the_given_order(a, scalar, shift, up, down, constant, order):
    # the reference zero-extends or truncates the input to order first
    down = [(c, e) for c, e in down if (c, e) != (1, 0)]
    size = len(a) if order is None else order + 1
    expected = ref_shift(ref_scale((a + [Fraction(0)] * size)[:size], Fraction(scalar)), shift)
    for c, e in up:
        expected = ref_mul_binomial(expected, Fraction(c), e)
    for c, e in down:
        expected = ref_div_binomial(expected, Fraction(c), e)
    expected[0] += constant
    assert as_fractions(QSeries(a).apply_ratio(scalar, shift, up, down, constant, order)) == expected


def test_sum_of_rescales_the_total_and_scales_the_term():
    # over the running denominators 4, 12, 36, 36: the total is rescaled by
    # m = 4, 3, 3, 1 and the terms scaled by k = 1, 2, 4, 18; the third term,
    # of order 2, truncates the total
    rows = [
        [Fraction(1, 4), Fraction(3, 4), Fraction(1), Fraction(5)],
        [Fraction(5, 6), Fraction(-1, 6), Fraction(2), Fraction(1, 6)],
        [Fraction(1, 3), Fraction(7), Fraction(-2, 9)],
        [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2), Fraction(1)],
    ]
    total = QSeries.sum_of([QSeries(row) for row in rows], 3)
    assert as_fractions(total) == ref_add(ref_add(ref_add(rows[0], rows[1]), rows[2]), rows[3])
    assert total.order == 2


@settings(max_examples=80, deadline=None)
@given(st.lists(coeff_lists, min_size=1, max_size=8), st.integers(1, 4), st.integers(0, 12))
@example([[Fraction(1, 4)] * 4, [Fraction(5, 6)] * 4, [Fraction(1, 9)] * 4], 1, 3)
def test_strided_sum_matches_a_fold_of_shift_and_sum_of(rows, stride, order):
    # every term carried to at least `order`
    terms = [QSeries(row + [Fraction(0)] * (order + 1 - len(row))) for row in rows]
    expected = QSeries.sum_of((t.shift(stride * n) for n, t in enumerate(terms)), order)
    assert as_fractions(QSeries.strided_sum(terms, stride, order)) == as_fractions(expected.truncate(order))


def test_binomial_kernels_reject_negative_exponent():
    # for every coefficient, including c = 0, whose factor would be 1
    x = qs(1, 2)
    for coeff in (0, 1, Fraction(-1, 2)):
        for call in (
            lambda: x.mul_binomial(coeff, -1),
            lambda: x.div_binomial(coeff, -1),
            lambda: x.apply_ratio(coeff, -1),
            lambda: x.apply_ratio(up=((1, 1), (coeff, -1))),
            lambda: x.apply_ratio(down=((coeff, -1),)),
        ):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("a", [[Fraction(0)] * 13, HIGH], ids=["zero", "zero-below-q10"])
def test_apply_ratio_checks_factors_before_skipping_them(a):
    # on an empty or short tail every factor below is past the tail, yet a
    # negative exponent and the factor (1 - 1) are still rejected
    x = QSeries(a)
    for call in (
        lambda: x.apply_ratio(up=((2, 12), (0, -1))),
        lambda: x.apply_ratio(down=((2, 12), (Fraction(1, 3), -2))),
        lambda: x.apply_ratio(0, 20, down=((1, -1),)),
    ):
        with pytest.raises(ValueError):
            call()
    for call in (
        lambda: x.apply_ratio(down=((2, 12), (1, 0))),
        lambda: x.apply_ratio(0, 20, down=((1, 0),)),
        lambda: poch_ratio(x, down=((Fraction(1, 2), 11, 2), (1, 0, 1))),
    ):
        with pytest.raises(ZeroConstantTermError):
            call()


# (c, e, n) symbols with n = None (infinite), n = 0 (empty) and e > T all drawn
symbols = st.lists(
    st.tuples(scalars, exponents, st.one_of(st.none(), st.integers(0, 6))), max_size=3
)
A = [Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(0), Fraction(2, 9)]
A80 = [Fraction((-1) ** n * (n % 5 + 1), n % 3 + 1) for n in range(81)]


@settings(max_examples=120, deadline=None)
@given(coeff_lists, symbols, symbols)
@example(A, [(Fraction(2, 3), 1, None), (-1, 0, 2)], [(Fraction(-7, 3), 1, 3), (2, 2, None)])
@example(A, [(5, 0, 0), (3, 9, None)], [(1, 1, None), (Fraction(1, 2), 7, 2)])
@example(A, [], [(1, 0, 0), (Fraction(3, 4), 0, None)])
@example(A, [(2, 1, 1)], [(1, 0, 1)])
@example(A, [], [(1, 0, None)])
# substitution q = 12 x, with a factor above whose coefficient is an integer
@example(
    B13, [(Fraction(5, 6), 2, 1), (3, 1, 1)], [(Fraction(2, 3), 1, None), (Fraction(-3, 4), 1, 2)]
)
# a tail of order 2 after ten zeros: the factor (2, 3) is skipped
@example(HIGH, [(2, 3, 1)], [(Fraction(-1, 3), 1, 2)])
# the zero series: an empty tail
@example([Fraction(0)] * 13, [(2, 1, 3)], [(Fraction(1, 3), 0, 2)])
# every symbol is empty: no factors, so no scan for the tail
@example(HIGH, [(5, 0, 0)], [(2, 1, 0)])
# T = 80 with infinite symbols above and below: the upper half of each runs
# as one window sum, the lower half factor by factor
@example(A80, [(Fraction(4, 7), 1, None), (2, 0, 5)], [(Fraction(-2, 3), 1, None), (1, 1, 6)])
def test_poch_ratio_matches_reference(a, up, down):
    # the reference folds the factors (1 - c q^(e+k)), k < n, of each symbol in turn
    def factors(c, e, n):
        return [(Fraction(c), e + k) for k in range(len(a) if n is None else n)]

    expected = a
    for symbol in up:
        for c, e in factors(*symbol):
            expected = ref_mul_binomial(expected, c, e)
    x = QSeries(a)
    if any(c == 1 and e == 0 and n != 0 for c, e, n in down):
        with pytest.raises(ZeroConstantTermError):
            poch_ratio(x, up, down)
        return
    for symbol in down:
        for c, e in factors(*symbol):
            expected = ref_div_binomial(expected, c, e)
    assert as_fractions(poch_ratio(x, up=up, down=down)) == expected


def test_poch_ratio_rejects_negative_exponent_and_length():
    x = qs(1, 2, 3)
    for bad in ((2, -1, 3), (2, 1, -1), (0, -1, None), (1, 0, -2)):
        for call in (lambda: poch_ratio(x, up=(bad,)), lambda: poch_ratio(x, down=((2, 1, 2), bad))):
            with pytest.raises(ValueError):
                call()
