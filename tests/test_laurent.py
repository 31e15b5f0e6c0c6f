from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlab.laurent import LaurentZQSeries
from qlab.series import QSeries, ZeroConstantTermError, poch
from qlab.identities.moments import crank_bivariate, rank_bivariate

from _oracles import (
    ref_crank_bivariate,
    ref_laurent_add,
    ref_laurent_div_binomial,
    ref_laurent_mul_binomial,
    ref_laurent_positive_z_part,
    ref_laurent_set_z_one,
    ref_laurent_z_derivative,
    ref_rank_bivariate,
)


def qs(*coeffs) -> QSeries:
    return QSeries([Fraction(c) for c in coeffs])


def test_z_derivative_of_z_free_series_is_zero():
    f = LaurentZQSeries.from_q_series(poch(1, 1, 3, 12))
    assert f.z_derivative() == LaurentZQSeries.zero(12)


def test_positive_part_keeps_only_positive_z():
    # z q + z^{-1} q at q^1
    f = LaurentZQSeries({1: qs(0, 1, 0), -1: qs(0, 1, 0)}, 2)
    g = f.positive_z_part()
    assert g.row(1) == {1: Fraction(1)}


def test_set_z_one_sums_rows():
    f = LaurentZQSeries({0: qs(2, 3), 1: qs(0, 1), -1: qs(0, 1)}, 1)
    assert f.set_z_one() == QSeries([Fraction(2), Fraction(5)])


@pytest.mark.parametrize("s, e", [(1, 0), (-1, 0), (2, 1), (-3, 2), (0, -1), (1, -1)])
def test_division_needs_z_to_ride_on_q(s, e):
    # a factor (1 - c z^s q^e) with |s| > e would break the |k| <= n bound
    with pytest.raises(ValueError):
        LaurentZQSeries.from_q_series(QSeries.one(5)).div_binomial(Fraction(1), s, e)


@pytest.mark.parametrize("k, col", [(1, qs(1, 0, 0)), (-2, qs(0, 3, 1)), (3, qs(0, 0, 1)),
                                    (-5, qs(0, 0, 1))])
def test_columns_must_vanish_below_q_to_the_abs_k(k, col):
    with pytest.raises(ValueError):
        LaurentZQSeries({k: col}, 2)


@pytest.mark.parametrize("n_top", [1, 2, 4, 6])
def test_z_exponent_bound_for_crank_and_rank(n_top):
    order = 18
    one = QSeries.one(order)
    for f in (crank_bivariate(n_top, one), rank_bivariate(n_top, one)):
        for n in range(order + 1):
            assert max((abs(k) for k in f.row(n)), default=0) <= n


def test_crank_bivariate_at_z_one_matches_scalar_route():
    order = 12
    n_top = 4
    counting = crank_bivariate(n_top, QSeries.one(order)).set_z_one()
    # (q)_N / ((zq)_N (q/z)_N) at z = 1, computed in plain series arithmetic
    direct = poch(1, 1, n_top, order)
    for k in range(1, n_top + 1):
        direct = direct.div_binomial(1, k).div_binomial(1, k)
    assert counting == direct


def test_equality_is_up_to_the_common_order():
    f = LaurentZQSeries({0: qs(1, 0, 0), 2: qs(0, 0, 5)}, 2)
    assert f == LaurentZQSeries.from_q_series(qs(1, 0))
    assert f != LaurentZQSeries.from_q_series(qs(1, 0, 0))


# -- kernels against the per-q-row Fraction reference --------------------------

fractions_st = st.builds(Fraction, st.integers(-35, 35), st.integers(1, 7))
scalars = st.one_of(st.integers(-3, 3), fractions_st)


@st.composite
def laurent_columns(draw):
    """(order, {z-exponent: column as Fractions}) with keys in -4..4, so
    gaps between keys, zero columns and the empty (zero) series all occur;
    the column of z^k is zero below q^|k|, as every series here is."""
    order = draw(st.integers(0, 8))
    column = st.one_of(
        st.lists(fractions_st, min_size=order + 1, max_size=order + 1),
        st.lists(st.integers(-4, 4).map(Fraction), min_size=order + 1, max_size=order + 1),
    )
    cols = draw(st.dictionaries(st.integers(-4, 4), column, max_size=5))
    return order, {k: [Fraction(0)] * min(abs(k), order + 1) + col[abs(k):]
                   for k, col in cols.items()}


def to_laurent(case) -> LaurentZQSeries:
    order, cols = case
    return LaurentZQSeries(
        {k: QSeries(col) for k, col in cols.items()},
        order,
    )


def to_rows(case) -> list:
    order, cols = case
    return [{k: col[n] for k, col in cols.items() if col[n] != 0} for n in range(order + 1)]


def as_rows(f: LaurentZQSeries) -> list:
    """The q-rows with Fraction values, checking the fixed layout: the flat
    series has (T + 1)(2T + 2) entries, z^k q^n at n(2T + 2) + k + T + 1, and
    is jointly reduced over one positive denominator; every nonzero entry
    decodes to some |k| <= n and to the row that row() reports, and
    is_zero() agrees."""
    flat, t = f._flat, f.order
    w = 2 * t + 2
    assert len(flat._nums) == (t + 1) * w
    assert flat._den > 0 and gcd(flat._den, *flat._nums) == 1
    decoded = [{} for _ in range(t + 1)]
    for i, x in enumerate(flat._nums):
        if x:
            n, k = i // w, i % w - t - 1
            assert abs(k) <= n
            decoded[n][k] = Fraction(x, flat._den)
    rows = [f.row(n) for n in range(f.order + 1)]
    assert rows == decoded
    assert f.is_zero() == (not any(rows))
    return rows


@st.composite
def binomial_cases(draw):
    """A series and a q-exponent e in 0..T+1."""
    case = draw(laurent_columns())
    return case, draw(st.integers(0, case[0] + 1))


# z-columns at -2 and 2 with nothing between them: the division must carry across the gap
GAP = (6, {-2: [Fraction(0), Fraction(0), Fraction(1)] + [Fraction(0)] * 4,
           2: [Fraction(0)] * 3 + [Fraction(1, 2)] + [Fraction(0)] * 3})


@settings(max_examples=150, deadline=None)
@given(binomial_cases(), scalars, st.integers(-2, 2))
@example((GAP, 1), 1, 1)
@example((GAP, 1), 1, -1)
@example((GAP, 2), Fraction(-2, 3), 2)
@example((GAP, 3), Fraction(-5, 4), -2)  # a fractional c over T//e = 2 steps
# from q^0 a fractional c steps T//e = 2 times, the last floor division exact only
# because the series was scaled by q^(T//e)
@example(((4, {0: [Fraction(1)] + [Fraction(0)] * 4}), 2), Fraction(2, 3), -1)
@example((GAP, 6), Fraction(7, 3), -2)  # e = T: one step
@example((GAP, 7), 1, -1)  # e > T: the quotient is the series itself
@example(((4, {}), 1), 1, 1)
@example(((4, {}), 0), 1, 0)  # the zero series still rejects the factor (1 - 1)
def test_binomial_kernels_match_reference(case_e, c, s):
    case, e = case_e
    f, rows = to_laurent(case), to_rows(case)
    # apply_ratio takes z-free factors: the references at s = 0
    assert as_rows(f.apply_ratio(up=((c, e),))) == ref_laurent_mul_binomial(rows, Fraction(c), 0, e)
    if e == 0 and c == 1:
        with pytest.raises(ZeroConstantTermError):
            f.apply_ratio(down=((c, e),))
    else:
        expected = ref_laurent_div_binomial(rows, Fraction(c), 0, e)
        assert as_rows(f.apply_ratio(down=((c, e),))) == expected
    if abs(s) > e:
        with pytest.raises(ValueError):
            f.div_binomial(c, s, e)
    elif e == 0 and c == 1:
        with pytest.raises(ZeroConstantTermError):
            f.div_binomial(c, s, e)
    else:
        expected = ref_laurent_div_binomial(rows, Fraction(c), s, e)
        assert as_rows(f.div_binomial(c, s, e)) == expected


# (q)_2 to order 5 divided by (1 - zq), (1 - q/z), (1 - zq^2): the crank at T = 5, N = 2
CRANK_T5 = (5, {0: [Fraction(x) for x in (1, -1, -1, 1, 0, 0)]})
# a factor (1 - c z^s q^e) with 1 <= |s| <= e, as the layout requires
rides_on_q = st.integers(1, 9).flatmap(
    lambda e: st.tuples(scalars, st.sampled_from([-2, -1, 1, 2]).filter(lambda s: abs(s) <= e),
                        st.just(e)))


@settings(max_examples=100, deadline=None)
@given(laurent_columns(), st.lists(rides_on_q, min_size=3, max_size=3))
@example(CRANK_T5, [(1, 1, 1), (1, -1, 1), (1, 1, 2)])
@example(GAP, [(Fraction(1, 2), 2, 2), (-1, -2, 3), (Fraction(-3, 2), 1, 3)])
def test_chained_divisions_match_reference(case, factors):
    f, rows = to_laurent(case), to_rows(case)
    for c, s, e in factors:
        f, rows = f.div_binomial(c, s, e), ref_laurent_div_binomial(rows, Fraction(c), s, e)
        assert as_rows(f) == rows


def test_division_at_the_aliasing_edge():
    # 1/(1 - zq) at T = 5 puts z^5 q^5 in the last column of row 5, and the
    # quotient's division by (1 - q/z) sends z^0 q^0 to z^-6 q^6, exactly at
    # index (T + 1)W: a width of 2T + 1 or an offset of T breaks one or the other
    f = LaurentZQSeries.from_q_series(QSeries.one(5))
    rows = [{0: Fraction(1)}] + [{}] * 5
    f, rows = f.div_binomial(1, 1, 1), ref_laurent_div_binomial(rows, Fraction(1), 1, 1)
    assert as_rows(f) == rows and rows[5] == {5: Fraction(1)}
    f, rows = f.div_binomial(1, -1, 1), ref_laurent_div_binomial(rows, Fraction(1), -1, 1)
    assert as_rows(f) == rows and rows[5] == {5: 1, 3: 1, 1: 1, -1: 1, -3: 1, -5: 1}


@settings(max_examples=80, deadline=None)
@given(laurent_columns(), laurent_columns())
def test_add_matches_reference_across_orders(a, b):
    assert as_rows(to_laurent(a) + to_laurent(b)) == ref_laurent_add(to_rows(a), to_rows(b))


@settings(max_examples=80, deadline=None)
@given(laurent_columns(), st.integers(0, 9))
def test_linear_kernels_match_reference(case, k):
    f, rows = to_laurent(case), to_rows(case)
    assert as_rows(f.z_derivative()) == ref_laurent_z_derivative(rows)
    assert as_rows(f.positive_z_part()) == ref_laurent_positive_z_part(rows)
    assert list(f.set_z_one().coeffs) == ref_laurent_set_z_one(rows)
    moment = ref_laurent_set_z_one(ref_laurent_z_derivative(ref_laurent_positive_z_part(rows)))
    assert list(f.positive_moment().coeffs) == moment
    assert as_rows(f.apply_ratio(1, k)) == ([{}] * k + rows)[: len(rows)]
    assert f.is_zero() == (not any(rows))


# -- the z-pair division, and the crank and rank built on it --------------------


def symmetric(case):
    """case with each column z^-k replaced by its column z^k."""
    order, cols = case
    return order, {**{k: col for k, col in cols.items() if k >= 0},
                   **{-k: col for k, col in cols.items() if k > 0}}


# orders reach 8, so e, shift and up also run past T
@settings(max_examples=150, deadline=None)
@given(laurent_columns().map(symmetric), st.integers(1, 10), st.integers(0, 9),
       st.none() | st.integers(1, 9), scalars)
@example(symmetric(GAP), 1, 0, None, 0)  # the carry across the gap between z^-2 and z^2
@example(symmetric(GAP), 2, 3, 1, Fraction(-1, 3))
def test_pair_division_matches_two_binomial_divisions(case, e, shift, up, constant):
    order = case[0]
    f = to_laurent(case)
    expected = f.apply_ratio(1, shift, () if up is None else ((1, up),))
    expected = expected.div_binomial(1, 1, e).div_binomial(1, -1, e)
    expected += LaurentZQSeries.from_q_series(QSeries.monomial(constant, 0, order))
    assert as_rows(f.div_z_pair(e, shift, up, constant)) == as_rows(expected)


def test_pair_division_at_the_aliasing_edge():
    # at T = 5 and e = 1 row 5 reads row 4's columns up to k = 6, and that
    # last read is one entry past row 4: column -6 of row 5, which stays zero
    rows = [{0: Fraction(1)}] + [{}] * 5
    for _ in range(2):
        rows = ref_laurent_div_binomial(rows, Fraction(1), 1, 1)
        rows = ref_laurent_div_binomial(rows, Fraction(1), -1, 1)
    f = LaurentZQSeries.from_q_series(QSeries.one(5)).div_z_pair(1)
    assert as_rows(f.div_z_pair(1)) == rows and rows[5][5] == rows[5][-5] == 6


@pytest.mark.parametrize("columns, args", [({1: qs(0, 1, 0)}, (1,)), ({2: qs(0, 0, 1), -2: qs(0, 0, 2)}, (1,)),
                                           ({0: qs(1, 0, 0)}, (0,)), ({0: qs(1, 0, 0)}, (1, -1)),
                                           ({0: qs(1, 0, 0)}, (1, 0, -1))])
def test_pair_division_needs_a_symmetric_series_and_a_power_series_ratio(columns, args):
    with pytest.raises(ValueError):
        LaurentZQSeries(columns, 2).div_z_pair(*args)


@pytest.mark.parametrize("order", range(13))
def test_crank_and_rank_match_the_term_by_term_reference(order):
    # the rank's levels stop at n^2 <= T, so the perfect squares T = 1, 4, 9
    # are where one level too few shows
    one = QSeries.one(order)
    for n_top in range(1, order + 2):
        assert as_rows(crank_bivariate(n_top, one)) == ref_crank_bivariate(n_top, order)
        assert as_rows(rank_bivariate(n_top, one)) == ref_rank_bivariate(n_top, order)
