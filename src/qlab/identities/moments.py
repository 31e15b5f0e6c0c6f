"""First odd rank and crank moments: bivariate routes and closed forms.

The bivariate finite crank generating function is the product
(q)_N / ((zq)_N (q/z)_N); the rank one is the sum
sum_{n=0}^{N} [N,n] (q)_n q^{n^2} / ((zq)_n (q/z)_n).  Applying z d/dz,
keeping the positive z-powers and setting z = 1 turns either into the
generating function of its first positive-k moment; R33 and R34 check
those pipelines against the closed-form single sums, and R35 holds the
difference whose coefficients are scanned (not asserted) for
non-negativity.

Both functions divide by pairs (1 - zq^n)(1 - q^n/z), one div_z_pair call
each.  The rank sum is in Horner form, S <- 1 + r_n S from n = top down to
1, r_n = q^{2n-1} (1 - q^{N-n+1}) / ((1 - zq^n)(1 - q^n/z)), so no sum of
full-width terms is formed; r_1...r_n carries q^{n^2}, so top is the
largest n <= N with n^2 <= T.
"""

from __future__ import annotations

from ..laurent import LaurentZQSeries
from ..series import QSeries, div_poch, poch_ratio, term_sum
from .common import div_q_n, finite_divisor_sum, limit_cutoff, weighted_square_sum
from .model import FINITE, Identity


def crank_bivariate(N: int, one: QSeries) -> LaurentZQSeries:
    """(q)_N / ((zq)_N (q/z)_N) as a Laurent-in-z series: one z-pair division per k."""
    f = LaurentZQSeries.from_q_series(poch_ratio(one, up=((1, 1, N),)))
    for k in range(1, min(N, one.order) + 1):
        f = f.div_z_pair(k)
    return f


def rank_bivariate(N: int, one: QSeries) -> LaurentZQSeries:
    """sum_{n=0}^{N} [N,n] (q)_n q^{n^2} / ((zq)_n (q/z)_n), in the Horner form
    of the module docstring."""
    s, T = LaurentZQSeries.from_q_series(one), one.order
    for n in range(N, 0, -1):
        if n * n > T:  # r_1...r_n carries q^{n^2}, so 1 + r_n S is 1 to order T
            continue
        s = s.div_z_pair(n, 2 * n - 1, N - n + 1, constant=1)
    return s


def _moment_sum(N: int, one: QSeries, exp_step, up=lambda n: ()) -> QSeries:
    """sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n q^{e(n)} w_n / ((q)_{n+N} (1-q^n)),
    with e(n) - e(n-1) = exp_step(n) and w_n the product of the factors up(n)."""

    def ratio(n):  # [N,n] (-1)^{n+1} (q)_n q^{e(n)} / (q)_{n+N}, with 1/(q)_N at n = 1
        if n == 1:
            return 1, exp_step(1), ((1, N),), ((1, N + 1), *((1, k) for k in range(1, N + 1)))
        return -1, exp_step(n), ((1, N - n + 1),), ((1, n + N),)

    return term_sum(one, ratio, 1, N, lambda n: (1, up(n), ((1, n),)))


def crank_moment_finite(N: int, one: QSeries) -> QSeries:
    """Closed form: sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n q^{n(n+1)/2}
    / ((q)_{n+N} (1-q^n))."""
    return _moment_sum(N, one, lambda n: n)


def rank_moment_finite(N: int, one: QSeries) -> QSeries:
    """Closed form: sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n q^{n(3n+1)/2}
    / ((q)_{n+N} (1-q^n))."""
    return _moment_sum(N, one, lambda n: 3 * n - 1)


def _moment_difference(N: int, one: QSeries) -> QSeries:
    """sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n q^{n(n+1)/2} (1 - q^{n^2})
    / ((q)_{n+N} (1-q^n)); the crank-minus-rank moment difference."""
    return _moment_sum(N, one, lambda n: n, lambda n: ((1, n * n),))


def moment_difference_finite(N: int, order: int) -> QSeries:
    """The moment difference to q^order, the series positivity_scan reads."""
    return _moment_difference(N, QSeries.one(order))


def crank_moment_infinite(order: int) -> QSeries:
    """(1/(q)_inf) sum_{n>=1} (-1)^{n+1} q^{n(n+1)/2} / (1-q^n), the sum F(1, 0)
    at its limit."""
    one = QSeries.one(order)
    return div_poch(finite_divisor_sum(1, 0, limit_cutoff(one), one), 1, 1, None)


def crank_moment_infinite_positive_form(one: QSeries) -> QSeries:
    """sum_{k>=0} k q^{k^2} / (q)_k^2, the other stated form of the same series:
    M_N(1) at its limit."""
    return weighted_square_sum(1, limit_cutoff(one), one)


def rank_moment_infinite(order: int) -> QSeries:
    """(1/(q)_inf) sum_{n>=1} (-1)^{n+1} q^{n(3n+1)/2} / (1-q^n)."""
    one = QSeries.one(order)
    total = term_sum(one, lambda n: (-1 if n > 1 else 1, 3 * n - 1, (), ()), 1, weight=div_q_n)
    return div_poch(total, 1, 1, None)


def _r33() -> Identity:
    def lhs(env, N, one):
        return crank_bivariate(N, one).positive_moment()

    def rhs(env, N, one):
        return crank_moment_finite(N, one)

    return Identity(
        id="R33",
        title="finite first positive crank moment: extraction vs closed form",
        statement=(
            "z d/dz -> positive z-part -> z=1 applied to (q)_N/((zq)_N (q/z)_N) "
            "= sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n q^{n(n+1)/2} / ((q)_{n+N}(1-q^n))"
        ),
        params=(),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def _r34() -> Identity:
    def lhs(env, N, one):
        return rank_bivariate(N, one).positive_moment()

    def rhs(env, N, one):
        return rank_moment_finite(N, one)

    return Identity(
        id="R34",
        title="finite first positive rank moment: extraction vs closed form",
        statement=(
            "z d/dz -> positive z-part -> z=1 applied to "
            "sum_{n=0}^{N} [N,n] (q)_n q^{n^2}/((zq)_n (q/z)_n) "
            "= sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n q^{n(3n+1)/2} / ((q)_{n+N}(1-q^n))"
        ),
        params=(),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def _r35() -> Identity:
    def lhs(env, N, one):
        return crank_moment_finite(N, one) - rank_moment_finite(N, one)

    def rhs(env, N, one):
        return _moment_difference(N, one)

    return Identity(
        id="R35",
        title="crank-minus-rank moment difference (positivity scan target)",
        statement=(
            "C1(q,N) - R1(q,N) = sum_{n=1}^{N} [N,n] (-1)^{n+1} (q)_n "
            "q^{n(n+1)/2} (1-q^{n^2}) / ((q)_{n+N}(1-q^n)); "
            "coefficients observed non-negative, reported rather than asserted"
        ),
        params=(),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        scan_only=True,
    )


def entries() -> list:
    return [_r33(), _r34(), _r35()]
