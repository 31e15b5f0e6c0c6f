"""The generalized smallest-parts identity and its special cases.

R24 is the classical smallest-parts identity itself; both of its sides
are built purely from partition enumeration, with no series machinery,
so it doubles as the combinatorial anchor of the registry.

Each R24 side sweeps the partition profiles of T once and reads every
n <= T off that sweep.  A partition of T with m ones, j <= m of them
dropped, is a partition of T - j, and every partition of every
1 <= n <= T arises exactly once this way (the empty partition of 0
arises from T's all-ones partition and is skipped).  The statistics of
the dropped-ones partition follow from the parent's by arithmetic: its
rank is the parent's plus j; its smallest part is 1 with multiplicity
m - j while j < m, and the last part above 1, as often as the parent has
it, when j = m.  Each side runs its own sweep, so the two share no more
than the enumerator; the per-n oracles read tuples and stay the reference.

The series sides are term_sums.  The q^{j^2}/(q)_j^2 sums of R23, R25 and
R36 are interchanged, one weight per inner index over the suffix sums of
the outer terms, which they read from the forward stream, ratio_terms.
R31's double sum is a double_term_sum, nested from the last index in,
its inner sum carried only to the order its outer term leaves, so no
full product runs.

R32 is R22 at the limit cutoff N = T + 1, and its sums are phi_sum's
finite sums there: the d-q block of R26 is block_sum, the quotient sums
of R26-R28 are quotient_side and quotient_tail, and A(c, d) is R21's sum
weighted by n.  At its index n (k + j in the block) a term is O(q^n), and
the cutoff adds to it only factors 1 + O(q^{N-n+1}), as in
common.limit_cutoff; the d-q block already equals its limit at N = T - 1.

A corollary's sum is its parent's at fixed parameters, with one builder:
A(c, d) is R32's at (c, d), R26's at c = -1 ((q^2;q^2)_n = (q)_n (-q)_n)
and R28's at c = 0; R32's right side times (q)_inf is R26's at c = -1 and
twice R27's at (c, d) = (-1, 1); L(d) and the square-sum tail are R23's
at d and R25's at d = -1; R29 and R30 are R28 at d = 1 and d = -1.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from ..partitions import partition_profiles
from ..series import QSeries, div_poch, double_term_sum, poch_ratio, ratio_terms, term_sum
from .common import (
    all_nonzero,
    div_q_n,
    largest_part_sum,
    limit_cutoff,
    nested_q_power_sum,
    not_value,
    rules,
    sides_at,
    times_n,
    weighted_square_sum,
)
from .model import INFINITE, Identity, ParamEnv
from .phi_sum import _alternating, _r22, block_sum, quotient_side, quotient_tail


def n_sc_generating_function(order: int) -> QSeries:
    """sum_n N_SC(n) q^n = (1/(q)_inf) sum_{n>=1} n (-1)^{n-1} q^{n(n+1)/2}
    / ((q)_n (1 + q^n))."""
    return div_poch(_n_sc_sum(QSeries.one(order)), 1, 1, None)


def _n_sc_sum(one: QSeries) -> QSeries:
    """sum_{n>=1} n (-1)^{n-1} q^{n(n+1)/2} / ((q)_n (1 + q^n)), without the 1/(q)_inf."""

    def ratio(n):  # (-1)^{n-1} q^{n(n+1)/2} / (q)_n
        return 1 if n == 1 else -1, n, (), ((1, n),)

    return term_sum(one, ratio, 1, weight=lambda n: (n, (), ((-1, n),)))


def overlined_largest_series(order: int) -> QSeries:
    """sum_{n>=1} n q^n (-q)_{n-1} / (q)_n, the series counterpart of the
    overlined-largest-part statistic."""
    return largest_part_sum(-1, QSeries.one(order))


def _square_sum(one: QSeries, weight) -> QSeries:
    """sum_{j>=1} q^{j^2} / (q)_j^2 * sum_{n=1}^{j} weight(q^n, n), interchanged
    over the suffix sums of its outer terms."""

    def ratio(j):  # q^{j^2} / (q)_j^2
        return 1, 2 * j - 1, (), ((1, j), (1, j))

    return nested_q_power_sum(ratio_terms(one, ratio, 1), one, weight)


def _alternating_sum(c, d, one: QSeries) -> QSeries:
    """A(c, d) = sum_{n>=1} n (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} / ((q)_n (cq)_n),
    R21's sum weighted by n at the limit cutoff; at c = 0, d may be 0."""
    return term_sum(one, _alternating(c, d, limit_cutoff(one), False), 1, weight=times_n)


def _spt_sum(d, one: QSeries) -> QSeries:
    """L(d) = sum_{n>=1} n (-d)^{n-1} (q/d)_{n-1} q^{n(n+1)/2} / (q)_n^2."""

    def ratio(n):  # (-d)^{n-1} (q/d)_{n-1} q^{n(n+1)/2} / (q)_n^2
        return (-d, n, ((1 / d, n - 1),), ((1, n), (1, n))) if n > 1 else (1, 1, (), ((1, 1), (1, 1)))

    return term_sum(one, ratio, 1, weight=times_n)


def _spt_rhs(d, one: QSeries) -> QSeries:
    """S(d) - (dq)_inf sum_{j>=1} q^{j^2}/(q)_j^2 sum_{n=1}^{j} q^n / ((1 - d q^n)(1 - q^n)),
    R23's right side times (q)_inf; at d = -1 the weight's denominator is 1 - q^{2n}."""
    tail = _square_sum(one, lambda n: (1, (), ((d, n), (1, n))))
    return largest_part_sum(d, one) - poch_ratio(tail, up=((d, 1, None),))


def _r23() -> Identity:
    def lhs(env, N, one):
        return div_poch(_spt_sum(env.get("d"), one), 1, 1, None)

    def rhs(env, N, one):
        return div_poch(_spt_rhs(env.get("d"), one), 1, 1, None)

    return Identity(
        id="R23",
        title="one-parameter extension of the smallest-parts identity",
        statement=(
            "(1/(q)_inf) sum_{n>=1} n (-d)^{n-1} (q/d)_{n-1} q^{n(n+1)/2} / (q)_n^2 "
            "= (1/(q)_inf) sum_{n>=1} n q^n (dq)_{n-1} / (q)_n "
            "- ((dq)_inf/(q)_inf) sum_{j>=1} q^{j^2}/(q)_j^2 "
            "sum_{n=1}^{j} q^n / ((1-d q^n)(1-q^n))"
        ),
        params=("d",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(not_value("d", 0, "the quotient argument q/d is undefined")),
    )


def _r24() -> Identity:
    # Both sides read every n <= T off one sweep, dropping j of a partition's
    # m ones (module docstring); partitions of T that agree in what a side
    # reads contribute alike, so the sweep tallies that and expands the tallies.
    def lhs(env, N, one):
        T = one.order
        values, with_ones = [0] * (T + 1), [0] * (T + 1)  # spt(n); partitions of T by ones
        for _, _, m, last in partition_profiles(T):
            with_ones[m] += 1
            values[T - m] += last  # all m dropped: the smallest is the last part above 1, if any
        for m, count in enumerate(with_ones):
            for j in range(m):  # j < m dropped: the smallest is 1, m - j times
                values[T - j] += count * (m - j)
        return QSeries([Fraction(v) for v in values])

    def rhs(env, N, one):
        T = one.order
        W = T + 1
        tally = [0] * ((2 * T + 1) * W)  # partitions of T by (rank + T) W + m
        for largest, size, m, _ in partition_profiles(T):
            tally[(largest - size + T) * W + m] += 1
        count, rank2 = [0] * (T + 1), [0] * (T + 1)  # p(n), N_2(n)
        for key, c in enumerate(tally):
            if c:
                shifted, m = divmod(key, W)  # rank + T, m
                for n in range(max(T - m, 1), T + 1):  # T - n ones dropped, n = 0 skipped
                    count[n] += c
                    rank2[n] += c * (shifted - n) ** 2  # the rank grows by T - n
        # n p(n) - N_2(n) / 2
        return QSeries([Fraction(0)] + [n * count[n] - Fraction(rank2[n], 2) for n in range(1, T + 1)])

    return Identity(
        id="R24",
        title="smallest-parts identity, checked by pure enumeration",
        statement="spt(n) = n p(n) - (1/2) N_2(n), from brute-force partitions only",
        params=(),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def _r25() -> Identity:
    def lhs(env, N, one):  # R23's sums at d = -1, a Fraction: 1 / -1 of ints is a float
        return _spt_sum(Fraction(-1), one)

    def rhs(env, N, one):
        return _spt_rhs(Fraction(-1), one)

    return Identity(
        id="R25",
        title="smallest-parts extension at parameter -1 (overpartition form)",
        statement=(
            "sum_{n>=1} n (-q)_{n-1} q^{n(n+1)/2} / (q)_n^2 "
            "= sum_{n>=1} n q^n (-q)_{n-1} / (q)_n "
            "- (-q)_inf sum_{j>=1} q^{j^2}/(q)_j^2 sum_{n=1}^{j} q^n/(1-q^{2n})"
        ),
        params=(),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def _r26() -> Identity:
    def lhs(env, N, one):
        d = env.get("d")
        # (q^2;q^2)_n = (q)_n (-q)_n, so the sum is A(-1, d); the d-q block at
        # c = -1 has no 1/(q)_inf in its prefactor here, and at N = T + 1 the
        # 1/(q)_N of phi_block's is 1/(q)_inf to order T, so both are left out
        N = limit_cutoff(one)
        block = poch_ratio(block_sum(-1, d, N, one), up=((d, 1, N),), down=((-1, 1, N),))
        return _alternating_sum(-1, d, one) + block

    def rhs(env, N, one):  # c/(c - d) = 1/(1 + d) at c = -1
        return quotient_side(-1, env.get("d"), limit_cutoff(one), one)

    return Identity(
        id="R26",
        title="one-parameter extension of the self-conjugate weighted count",
        statement=(
            "sum_{n>=1} n (-1)^{n-1} (-1/d)_n d^n q^{n(n+1)/2} / (q^2;q^2)_n "
            "+ ((-1/d)_inf (dq)_inf/(-q)_inf) sum_{k>=1} d^k q^{k(k+1)} "
            "/ ((q)_k (dq)_k (1-q^k)) sum_{n>=0} (dq)_n (-q^k/d)^n / ((dq^{k+1})_n (q)_n) "
            "= (1/(1+d)) (1 - (dq)_inf/(-q)_inf) "
            "+ ((dq)_inf/(-q)_inf) sum_{n>=1} (-q/d)_n (dq)^n / ((q)_n (1-q^n))"
        ),
        params=("d",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("d", 0, "the quotient argument -1/d is undefined"),
            not_value("d", -1, "the prefactor 1/(1+d) has a pole"),
        ),
    )


def _r27() -> Identity:
    def lhs(env, N, one):
        head = _n_sc_sum(one)

        # the bracket (-q)_n/(q)_n - 1 splits the sum in two term-ratio sums
        def with_bracket(n):  # q^{n(n+1)/2} (-q)_n / (q)_n^2
            return 1, n, ((-1, n),), ((1, n), (1, n))

        def without(n):  # q^{n(n+1)/2} / (q)_n
            return 1, n, (), ((1, n),)

        tail = term_sum(one, with_bracket, 1, weight=div_q_n) - term_sum(one, without, 1, weight=div_q_n)
        up, down = ((1, 1, None),), ((-1, 1, None),)
        return head + poch_ratio(tail.scale(Fraction(1, 2)), up=up, down=down)

    def rhs(env, N, one):  # half of R26's right side at d = 1; c/d of ints is a float
        return quotient_side(Fraction(-1), Fraction(1), limit_cutoff(one), one).scale(Fraction(1, 2))

    return Identity(
        id="R27",
        title="self-conjugate weighted count identity",
        statement=(
            "(q)_inf sum_n N_SC(n) q^n + (1/2) ((q)_inf/(-q)_inf) "
            "sum_{n>=1} q^{n(n+1)/2} ((-q)_n/(q)_n - 1) / ((1-q^n)(q)_n) "
            "= 1/4 - (1/4)(q)_inf/(-q)_inf "
            "+ (1/2)((q)_inf/(-q)_inf) sum_{n>=1} (-q)_n q^n / ((q)_n (1-q^n))"
        ),
        params=(),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def _r28() -> Identity:
    def lhs(env, N, one):
        d = env.get("d")

        def ratio(n):  # d^n q^{n(n+1)} / ((q)_n (dq)_n)
            return d, 2 * n, (), ((1, n), (d, n))

        block = term_sum(one, ratio, 1, weight=div_q_n)
        return div_poch(_alternating_sum(0, d, one), d, 1, None) + block

    def rhs(env, N, one):
        return quotient_tail(0, env.get("d"), limit_cutoff(one), one)

    return Identity(
        id="R28",
        title="companion identity with the (cq)_n column removed",
        statement=(
            "(1/(dq)_inf) sum_{n>=1} n (-1)^{n-1} d^n q^{n(n+1)/2} / (q)_n "
            "+ sum_{n>=1} d^n q^{n(n+1)} / ((q)_n (dq)_n (1-q^n)) "
            "= sum_{n>=1} (dq)^n / ((q)_n (1-q^n))"
        ),
        params=("d",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        domain=all_nonzero("d"),
    )


def _r29() -> Identity:
    return Identity(
        id="R29",
        title="companion identity at parameter 1",
        statement=(
            "(1/(q)_inf) sum n (-1)^{n-1} q^{n(n+1)/2}/(q)_n "
            "+ sum q^{n(n+1)}/((q)_n^2 (1-q^n)) = sum q^n/((q)_n (1-q^n))"
        ),
        params=(),
        kind=INFINITE,
        sides=sides_at(_r28(), lambda env: ParamEnv(d=Fraction(1))),
    )


def _r30() -> Identity:
    return Identity(
        id="R30",
        title="companion identity at parameter -1 (distinct-parts form)",
        statement=(
            "(-1/(-q)_inf) sum_{n>=1} n q^{n(n+1)/2}/(q)_n "
            "+ sum_{n>=1} (-1)^n q^{n(n+1)} / ((q^2;q^2)_n (1-q^n)) "
            "= sum_{n>=1} (-q)^n / ((q)_n (1-q^n))"
        ),
        params=(),
        kind=INFINITE,
        sides=sides_at(_r28(), lambda env: ParamEnv(d=Fraction(-1))),
    )


def _r31() -> Identity:
    def lhs(env, N, one):
        c = env.get("c")

        def second(k):  # (-c)^k q^{k(k+1)/2} q^{k^2} / ((q)_k (cq)_k)
            return -c, 3 * k - 1, (), ((1, k), (c, k))

        # The j = 0 term q^{k^2}/(cq)_k of the inner sum rides on the outer
        # term, so the inner sum has 1/(1 - q^k) at j = 0, and its terms
        # are the ratios c^j q^{j^2+2jk} / ((cq^{k+1})_j (q)_j).
        def inner(k, j):
            return (c, 2 * (j + k) - 1, (), ((c, j + k), (1, j))) if j else (1, 0, (), ((1, k),))

        block = double_term_sum(one, second, inner, 1)
        return weighted_square_sum(c, limit_cutoff(one), one) - block

    def rhs(env, N, one):
        c = env.get("c")

        def ratio(k):  # (-c)^k q^{k(k+3)/2} / (q)_k
            return -c, k + 1, (), ((1, k),)

        tail = term_sum(one, ratio, 1, weight=div_q_n)
        return div_poch(one - tail, c, 1, None) - one

    return Identity(
        id="R31",
        title="limit form with the second parameter sent to zero",
        statement=(
            "sum_{n>=0} n c^n q^{n^2} / ((q)_n (cq)_n) "
            "- sum_{k>=1} (-c)^k q^{k(k+1)/2} / ((q)_k (1-q^k)) "
            "sum_{j>=0} c^j q^{(j+k)^2} / ((cq)_{j+k} (q)_j) "
            "= 1/(cq)_inf - 1 - (1/(cq)_inf) sum_{k>=1} (-c)^k q^{k(k+3)/2} "
            "/ ((q)_k (1-q^k))"
        ),
        params=("c",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        domain=all_nonzero("c"),
    )


def _r32() -> Identity:
    r22 = _r22()
    return dataclasses.replace(
        r22,
        id="R32",
        title="limit of the 2-phi-1 block theorem as the cutoff grows",
        statement=(
            "(1/(q)_inf) sum_{n>=1} n (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} "
            "/ ((q)_n (cq)_n) "
            "+ ((c/d)_inf (dq)_inf/((q)_inf (cq)_inf)) sum_{k>=1} d^k q^{k(k+1)} "
            "/ ((dq)_k (q)_k (1-q^k)) sum_{j>=0} (dq)_j (c q^k/d)^j / ((dq^{k+1})_j (q)_j) "
            "= c/((c-d)(q)_inf) (1 - (dq)_inf/(cq)_inf) "
            "+ ((dq)_inf/((cq)_inf (q)_inf)) sum_{k>=1} (cq/d)_k (dq)^k / ((q)_k (1-q^k))"
        ),
        kind=INFINITE,
        sides=sides_at(r22, limit=True),
    )


def _r36() -> Identity:
    def lhs(env, N, one):
        # the inner sum is sum_{n=1}^{j} q^n / ((1 - q^{n+1})(1 - q^n))
        return _square_sum(one, lambda n: (1, (), ((1, n + 1), (1, n))))

    def rhs(env, N, one):
        t = one.apply_ratio(1, 2, down=((1, 1), (1, 1)))
        return div_poch(t, 1, 1, None)

    return Identity(
        id="R36",
        title="double-sum evaluation at the shift parameter q",
        statement=(
            "sum_{j>=1} q^{j^2}/(q)_j^2 sum_{n=1}^{j} q^n/((1-q^{n+1})(1-q^n)) "
            "= q^2 / ((1-q)^2 (q)_inf)"
        ),
        params=(),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def entries() -> list:
    return [
        _r23(),
        _r24(),
        _r25(),
        _r26(),
        _r27(),
        _r28(),
        _r29(),
        _r30(),
        _r31(),
        _r32(),
        _r36(),
    ]
