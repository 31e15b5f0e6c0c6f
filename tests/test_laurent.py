from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlab.laurent import LaurentZQSeries
from qlab.series import QSeries, ZeroConstantTermError, poch
from qlab.identities.moments import crank_bivariate, rank_bivariate

from _oracles import (
    ref_laurent_add,
    ref_laurent_div_binomial,
    ref_laurent_mul_binomial,
    ref_laurent_positive_z_part,
    ref_laurent_set_z_one,
    ref_laurent_z_derivative,
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


def test_z_powers_must_ride_on_q():
    with pytest.raises(ValueError):
        LaurentZQSeries.from_q_series(QSeries.one(5)).div_binomial(Fraction(1), 1, 0)


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
    gaps between keys, zero columns and the empty (zero) series all occur."""
    order = draw(st.integers(0, 8))
    column = st.one_of(
        st.lists(fractions_st, min_size=order + 1, max_size=order + 1),
        st.lists(st.integers(-4, 4).map(Fraction), min_size=order + 1, max_size=order + 1),
    )
    return order, draw(st.dictionaries(st.integers(-4, 4), column, max_size=5))


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
    """The q-rows with Fraction values, checking the flat layout's invariants:
    rows 0..T of the layout's width make up the whole flat series, which is
    jointly reduced over one positive denominator; every nonzero entry
    decodes to the row that row() reports, and is_zero() agrees."""
    flat, lo, w = f._flat, f._lo, f._width
    assert w >= 1 and len(flat._nums) == (f.order + 1) * w
    assert flat._den > 0 and gcd(flat._den, *flat._nums) == 1
    decoded = [{} for _ in range(f.order + 1)]
    for i, x in enumerate(flat._nums):
        if x:
            decoded[i // w][lo + i % w] = Fraction(x, flat._den)
    rows = [f.row(n) for n in range(f.order + 1)]
    assert rows == decoded
    assert f.is_zero() == (not any(rows))
    return rows


def span_width(rows: list) -> int:
    """The number of z-exponents from the lowest to the highest nonzero one."""
    ks = [k for row in rows for k in row]
    return max(ks) - min(ks) + 1 if ks else 0


@st.composite
def binomial_cases(draw):
    """A series and a q-exponent e in 0..T+1."""
    case = draw(laurent_columns())
    return case, draw(st.integers(0, case[0] + 1))


# z-columns at -2 and 2 with nothing between them: the division must carry across the gap
GAP = (6, {-2: [Fraction(0), Fraction(0), Fraction(1)] + [Fraction(0)] * 4,
           2: [Fraction(1, 2)] + [Fraction(0)] * 6})
# z^4 and z^-4 at q^0 and q^1, outside the |k| <= n bound of rank and crank
WIDE = (5, {4: [Fraction(1)] + [Fraction(0)] * 5,
            -4: [Fraction(0), Fraction(-3, 5)] + [Fraction(0)] * 4})


@settings(max_examples=150, deadline=None)
@given(binomial_cases(), scalars, st.integers(-2, 2))
@example((GAP, 1), 1, 1)
@example((GAP, 1), 1, -1)
@example((GAP, 2), Fraction(-2, 3), 2)
@example((GAP, 1), Fraction(-2, 3), -2)
@example(((4, {}), 1), 1, 1)
@example(((4, {}), 0), 1, 0)  # the zero series still rejects the factor (1 - 1)
@example((WIDE, 5), 1, 1)  # e = T: one step, two columns of padding
@example((WIDE, 5), Fraction(2, 3), -2)
@example((WIDE, 6), 1, -1)  # e > T: the quotient is the series itself
@example((WIDE, 1), Fraction(-5, 4), 2)  # |s| = 2 with a fractional c over T//e = 5 steps
@example((WIDE, 2), Fraction(7, 3), -2)
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
    if e == 0 and s != 0:
        with pytest.raises(ValueError):
            f.div_binomial(c, s, e)
    elif e == 0 and c == 1:
        with pytest.raises(ZeroConstantTermError):
            f.div_binomial(c, s, e)
    else:
        g = f.div_binomial(c, s, e)
        expected = ref_laurent_div_binomial(rows, Fraction(c), s, e)
        assert as_rows(g) == expected
        if s != 0 and any(expected):  # the quotient keeps only the columns it occupies
            assert g._width == span_width(expected)


# (q)_2 to order 5 divided by (1 - zq), (1 - q/z), (1 - zq^2): the crank at
# T = 5, N = 2, where padding by T//e columns instead aliases into row T
CRANK_T5 = (5, {0: [Fraction(x) for x in (1, -1, -1, 1, 0, 0)]})


@settings(max_examples=100, deadline=None)
@given(laurent_columns(),
       st.lists(st.tuples(scalars, st.sampled_from([-2, -1, 1, 2]), st.integers(1, 9)),
                min_size=3, max_size=3))
@example(CRANK_T5, [(1, 1, 1), (1, -1, 1), (1, 1, 2)])
@example(GAP, [(Fraction(1, 2), 2, 1), (-1, -2, 1), (Fraction(-3, 2), 1, 3)])
def test_chained_divisions_match_reference(case, factors):
    f, rows = to_laurent(case), to_rows(case)
    for c, s, e in factors:
        f, rows = f.div_binomial(c, s, e), ref_laurent_div_binomial(rows, Fraction(c), s, e)
        assert as_rows(f) == rows
        assert f._width == max(span_width(rows), 1)


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
    assert as_rows(f.apply_ratio(1, k)) == ([{}] * k + rows)[: len(rows)]
    assert f.is_zero() == (not any(rows))
