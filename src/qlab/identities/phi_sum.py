"""The finite sum of a 2-phi-1 and the two lemmas feeding it.

R20's right side and a part of R22's left side are one block, a sum over
k of 2phi1(dq, dq^{N+1}; dq^{k+1}; (c/d) q^k).  Euler's transformation
(Gasper-Rahman, Basic Hypergeometric Series, (III.3)), 2phi1(a, b; e; z)
= (abz/e)_inf / (z)_inf 2phi1(e/a, e/b; e; abz/e), makes it
2phi1(q^k, q^{k-N}; dq^{k+1}; cq^{N+1}), which ends at j = N - k; its
quotient of products leaves (c/d)_k in the outer term and
(dq)_N / ((q)_N (cq)_N) in front.  block_sum builds that form, and
phi_block puts the prefactor on it.  R22's right side over (q)_N is
quotient_side, x + (dq)_N/(cq)_N (tail - x) for x = c/(c - d) and tail
the finite sum quotient_tail.  At the limit cutoff N = T + 1 these sums
and R21's are spt_family's infinite sums: R32 is R22 there, the d-q block
of R26 is block_sum, and the quotient sums of R26-R28 and A(c, d) are
this module's.

Every sum is over term ratios whose factors (1 - c q^e) have e >= 1, and
ends after its cutoff or at its first term zero to order T.  R21's sum, the
head of R22's left side and the quotient tail are term_sums, and the block
is a double_term_sum, all nested from the last index in.  The block's
inner 2-phi-1 has 1/(1 - q^k) at j = 0 and is carried only to order
T - k(k+1), the q-valuation of its outer term, so no full product runs.
R20's left side alone takes its terms from the forward stream,
ratio_terms: it is interchanged, sum_k q^k U_k / (1 - q^k) over the
suffix sums U_k = sum_{n>=k} t_n.
"""

from __future__ import annotations

from ..series import QSeries, div_poch, double_term_sum, poch_ratio, ratio_terms, term_sum
from .common import (
    all_nonzero,
    distinct,
    div_q_n,
    nested_q_power_sum,
    not_value,
    rules,
    times_n,
)
from .model import FINITE, Identity


def block_sum(c, d, N: int, one: QSeries) -> QSeries:
    """sum_{k=1}^{N} [N,k] (c/d)_k d^k q^{k(k+1)} / ((dq)_k (1-q^k))
    * sum_{j=0}^{N-k} (q^k)_j (q^{k-N})_j (cq^{N+1})^j / ((dq^{k+1})_j (q)_j), the
    2-phi-1 block after Euler's transformation without its prefactor (see the
    module docstring)."""

    def outer(k):  # [N,k] (c/d)_k d^k q^{k(k+1)} / (dq)_k
        return d, 2 * k, ((c / d, k - 1), (1, N - k + 1)), ((1, k), (d, k))

    def inner(k, j):  # 1/(1 - q^k) at j = 0; (1 - q^{k-N+j-1}) c q^{N+1} = -c q^{k+j} (1 - q^{N-k-j+1})
        if not j:
            return 1, 0, (), ((1, k),)
        return -c, k + j, ((1, k + j - 1), (1, N - k - j + 1)), ((d, k + j), (1, j))

    return double_term_sum(one, outer, inner, 1, N, lambda k: N - k)


def phi_block(c, d, N: int, one: QSeries) -> QSeries:
    """(dq)_N / ((q)_N (cq)_N) * block_sum(c, d, N, one)."""
    return poch_ratio(block_sum(c, d, N, one), up=((d, 1, N),), down=((1, 1, N), (c, 1, N)))


def _alternating(c, d, N: int, over_q_N: bool):
    """The ratios of the terms n = 1..N: [N,n] (c/d)_n d^n (-1)^{n-1}
    q^{n(n+1)/2} / (cq)_n, and over_q_N, the same over (q)_N, which is
    (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} / ((q)_n (q)_{N-n} (cq)_n); at c = 0,
    (c/d)_n is 1 and d may be 0."""
    ratio = c / d if c else 0

    def term_ratio(n):
        down = ((1, n), (c, n))
        if n == 1 and over_q_N:
            down += tuple((1, k) for k in range(1, N + 1))
        return d if n == 1 else -d, n, ((ratio, n - 1), (1, N - n + 1)), down

    return term_ratio


def quotient_tail(x, d, N: int, one: QSeries) -> QSeries:
    """sum_{k=1}^{N} [N,k] (xq)_k (dq)^k / ((dq^{N-k+1})_k (1-q^k)); its limit
    has 1/(q)_k for [N,k] / (dq^{N-k+1})_k."""

    def ratio(k):  # [N,k] (xq)_k (dq)^k / (dq^{N-k+1})_k
        return d, 1, ((x, k), (1, N - k + 1)), ((d, N - k + 1), (1, k))

    return term_sum(one, ratio, 1, N, div_q_n)


def quotient_side(c, d, N: int, one: QSeries) -> QSeries:
    """c/(c-d) (1 - ratio) + ratio * quotient_tail(c/d, d, N), with ratio =
    (dq)_N/(cq)_N: R22's right side times (q)_N."""
    # x (1 - ratio) + ratio * tail = x + ratio * (tail - x), x = c/(c - d)
    x = one.scale(c / (c - d))
    tail = quotient_tail(c / d, d, N, one) - x
    return x + poch_ratio(tail, up=((d, 1, N),), down=((c, 1, N),))


def _r20() -> Identity:
    def lhs(env, N, one):
        # the weight is the harmonic partial sum sum_{k=1}^{n} q^k / (1 - q^k)
        terms = ratio_terms(one, _alternating(env.get("c"), env.get("d"), N, True), 1, N)
        return nested_q_power_sum(terms, one, div_q_n)

    def rhs(env, N, one):
        return phi_block(env.get("c"), env.get("d"), N, one)

    return Identity(
        id="R20",
        title="harmonic-weighted sum as a 2-phi-1 block",
        statement=(
            "sum_{n=1}^{N} (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} "
            "/ ((q)_n (q)_{N-n} (cq)_n) * sum_{k=1}^{n} q^k/(1-q^k) "
            "= (c/d)_inf (dq)_inf / ((q)_N (cq)_inf (dq^{N+1})_inf) "
            "* sum_{k=1}^{N} [N,k] d^k q^{k(k+1)} / ((dq)_k (1-q^k)) "
            "* 2phi1(dq, dq^{N+1}; dq^{k+1}; (c/d) q^k)"
        ),
        params=("c", "d"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(not_value("d", 0, "the quotient argument c/d is undefined")),
        domain=all_nonzero("c"),
    )


def _r21() -> Identity:
    def lhs(env, N, one):
        return term_sum(one, _alternating(env.get("c"), env.get("d"), N, False), 1, N)

    def rhs(env, N, one):
        c, d = env.get("c"), env.get("d")
        return one - poch_ratio(one, up=((d, 1, N),), down=((c, 1, N),))

    return Identity(
        id="R21",
        title="telescoping Pochhammer-ratio lemma",
        statement=(
            "sum_{n=1}^{N} [N,n] (c/d)_n d^n (-1)^{n-1} q^{n(n+1)/2} / (cq)_n "
            "= 1 - (dq)_N / (cq)_N"
        ),
        params=("c", "d"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(not_value("d", 0, "the quotient argument c/d is undefined")),
        domain=all_nonzero("c"),
    )


def _r22() -> Identity:
    def lhs(env, N, one):
        c, d = env.get("c"), env.get("d")
        return term_sum(one, _alternating(c, d, N, True), 1, N, times_n) + phi_block(c, d, N, one)

    def rhs(env, N, one):
        return div_poch(quotient_side(env.get("c"), env.get("d"), N, one), 1, 1, N)

    return Identity(
        id="R22",
        title="closed form for the n-weighted sum plus its 2-phi-1 block",
        statement=(
            "sum_{n=1}^{N} n (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} "
            "/ ((q)_n (q)_{N-n} (cq)_n) "
            "+ (c/d)_inf (dq)_inf / ((q)_N (cq)_inf (dq^{N+1})_inf) "
            "* sum_{k=1}^{N} [N,k] d^k q^{k(k+1)} / ((dq)_k (1-q^k)) "
            "* 2phi1(dq, dq^{N+1}; dq^{k+1}; (c/d) q^k) "
            "= c/((c-d)(q)_N) (1 - (dq)_N/(cq)_N) "
            "+ 1/(cq)_N sum_{k=1}^{N} (cq/d)_k (dq)_{N-k} (dq)^k "
            "/ ((q)_k (q)_{N-k} (1-q^k))"
        ),
        params=("c", "d"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("d", 0, "the quotient arguments c/d and cq/d are undefined"),
            distinct("c", "d", "the prefactor denominator (c - d) vanishes"),
        ),
        domain=all_nonzero("c"),
    )


def entries() -> list:
    return [_r20(), _r21(), _r22()]
