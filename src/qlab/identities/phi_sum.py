"""The finite sum of a 2-phi-1 and the two lemmas feeding it.

R20's right side and a part of R22's left side are one block, a sum over
k of 2phi1(dq, dq^{N+1}; dq^{k+1}; (c/d) q^k).  Euler's transformation
(Gasper-Rahman, Basic Hypergeometric Series, (III.3)), 2phi1(a, b; e; z)
= (abz/e)_inf / (z)_inf 2phi1(e/a, e/b; e; abz/e), makes it
2phi1(q^k, q^{k-N}; dq^{k+1}; cq^{N+1}), which ends at j = N - k; its
quotient of products leaves (c/d)_k in the outer term and
(dq)_N / ((q)_N (cq)_N) in front.  phi_block builds that form; the d-q
blocks of R26 and R32 are it at N = 2T (see spt_family).

Every sum is over term ratios whose factors (1 - c q^e) have e >= 1, and
ends after its cutoff or at its first term zero to order T.  R21's sum and
the head of R22's left side are term_sums, nested from the last index in.
The rest take their terms from the forward stream, ratio_terms: R20's left
side is interchanged, sum_k q^k U_k / (1 - q^k) over the suffix sums
U_k = sum_{n>=k} t_n; the block's inner 2-phi-1 weights its outer term t_k
and starts from t_k / (1 - q^k), so no full product runs; and R22's right
side measured slower nested.
"""

from __future__ import annotations

from itertools import count

from ..series import QSeries, div_poch, poch_ratio, ratio_terms, term_sum
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


def phi_block(c, d, N: int, one: QSeries) -> QSeries:
    """(dq)_N / ((q)_N (cq)_N) * sum_{k=1}^{N} [N,k] (c/d)_k d^k q^{k(k+1)} / ((dq)_k (1-q^k))
    * sum_{j=0}^{N-k} (q^k)_j (q^{k-N})_j (cq^{N+1})^j / ((dq^{k+1})_j (q)_j), the
    2-phi-1 block after Euler's transformation (see the module docstring)."""

    def ratio(k):  # [N,k] (c/d)_k d^k q^{k(k+1)} / (dq)_k
        return d, 2 * k, ((c / d, k - 1), (1, N - k + 1)), ((1, k), (d, k))

    def inner_sum(k, t):  # started from its outer term, t / (1 - q^k) at j = 0
        def inner(j):  # (1 - q^{k-N+j-1}) c q^{N+1} = -c q^{k+j} (1 - q^{N-k-j+1})
            if not j:
                return 1, 0, (), ((1, k),)
            return -c, k + j, ((1, k + j - 1), (1, N - k - j + 1)), ((d, k + j), (1, j))

        return type(one).sum_of(ratio_terms(t, inner, 0, N - k), one.order)

    total = type(one).sum_of(map(inner_sum, count(1), ratio_terms(one, ratio, 1, N)), one.order)
    return poch_ratio(total, up=((d, 1, N),), down=((1, 1, N), (c, 1, N)))


def _alternating(env, N: int, over_q_N: bool):
    """The ratios of the terms n = 1..N: [N,n] (c/d)_n d^n (-1)^{n-1}
    q^{n(n+1)/2} / (cq)_n, and over_q_N, the same over (q)_N, which is
    (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} / ((q)_n (q)_{N-n} (cq)_n)."""
    c, d = env.get("c"), env.get("d")

    def ratio(n):
        down = ((1, n), (c, n))
        if n == 1 and over_q_N:
            down += tuple((1, k) for k in range(1, N + 1))
        return d if n == 1 else -d, n, ((c / d, n - 1), (1, N - n + 1)), down

    return ratio


def _r20() -> Identity:
    def lhs(env, N, one):
        # the weight is the harmonic partial sum sum_{k=1}^{n} q^k / (1 - q^k)
        return nested_q_power_sum(ratio_terms(one, _alternating(env, N, True), 1, N), one, div_q_n)

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
        return term_sum(one, _alternating(env, N, False), 1, N)

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
        head = term_sum(one, _alternating(env, N, True), 1, N, times_n)
        return head + phi_block(env.get("c"), env.get("d"), N, one)

    def rhs(env, N, one):
        c, d = env.get("c"), env.get("d")
        quotient = poch_ratio(one, up=((d, 1, N),), down=((c, 1, N),))
        head = div_poch(one - quotient, 1, 1, N).scale(c / (c - d))

        def ratio(k):  # (cq/d)_k (dq)_{N-k} (dq)^k / ((q)_k (q)_{N-k}), from (dq)_N/(q)_N
            return d, 1, ((c / d, k), (1, N - k + 1)), ((d, N - k + 1), (1, k))

        terms = ratio_terms(poch_ratio(one, up=((d, 1, N),), down=((1, 1, N),)), ratio, 1, N)
        total = type(one).sum_of((t.div_binomial(1, k) for k, t in enumerate(terms, 1)), one.order)
        return head + div_poch(total, c, 1, N)

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
