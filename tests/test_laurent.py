import pytest

from qlab.laurent import LaurentZQSeries
from qlab.rational import rat
from qlab.series import QSeries, ZeroConstantTermError, poch
from qlab.identities.moments import crank_bivariate, rank_bivariate


def test_z_derivative_of_z_free_series_is_zero():
    f = LaurentZQSeries.from_q_series(poch(1, 1, 3, 12))
    assert f.z_derivative() == LaurentZQSeries.zero(12)


def test_positive_part_keeps_only_positive_z():
    # z q + z^{-1} q at q^1
    f = LaurentZQSeries([{}, {1: rat(1), -1: rat(1)}, {}])
    g = f.positive_z_part()
    assert g.row(1) == {1: rat(1)}


def test_set_z_one_sums_rows():
    f = LaurentZQSeries([{0: rat(2)}, {1: rat(1), -1: rat(1), 0: rat(3)}])
    assert f.set_z_one() == QSeries([rat(2), rat(5)])


def test_mul_and_div_binomial_roundtrip():
    f = crank_bivariate(3, 15)
    g = f.mul_binomial(rat(2, 3), 1, 2).div_binomial(rat(2, 3), 1, 2)
    assert g == f


def test_inverse_roundtrip():
    f = crank_bivariate(2, 12)
    assert f * f.inverse() == LaurentZQSeries.one(12)


def test_inverse_needs_scalar_head():
    with pytest.raises(ZeroConstantTermError):
        LaurentZQSeries([{1: rat(1)}, {}]).inverse()


def test_z_powers_must_ride_on_q():
    with pytest.raises(ValueError):
        LaurentZQSeries.one(5).div_binomial(rat(1), 1, 0)


@pytest.mark.parametrize("n_top", [1, 2, 4, 6])
def test_z_exponent_bound_for_crank_and_rank(n_top):
    order = 18
    for f in (crank_bivariate(n_top, order), rank_bivariate(n_top, order)):
        for n in range(order + 1):
            assert f.z_span(n) <= n


def test_crank_bivariate_at_z_one_matches_scalar_route():
    order = 12
    n_top = 4
    counting = crank_bivariate(n_top, order).set_z_one()
    # (q)_N / ((zq)_N (q/z)_N) at z = 1, computed in plain series arithmetic
    direct = poch(1, 1, n_top, order)
    for k in range(1, n_top + 1):
        direct = direct.div_binomial(1, k).div_binomial(1, k)
    assert counting == direct
