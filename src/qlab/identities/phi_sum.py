"""The finite sum of a 2-phi-1 and the two lemmas feeding it.

R20's right side and a part of R22's left side are one block, a sum over
k of 2phi1(dq, dq^{N+1}; dq^{k+1}; (c/d) q^k).  Euler's transformation
(Gasper-Rahman, Basic Hypergeometric Series, (III.3)), 2phi1(a, b; e; z)
= (abz/e)_inf / (z)_inf 2phi1(e/a, e/b; e; abz/e), makes it
2phi1(q^k, q^{k-N}; dq^{k+1}; cq^{N+1}), which ends at j = N - k; its
quotient of products leaves (c/d)_k in the outer term and
(dq)_N / ((q)_N (cq)_N) in front.  phi_block builds that form; the d-q
blocks of R26 and R32 are it at N = 2T (see spt_family).

Every sum is a term_sum: each term is the previous one times its ratio,
one apply_ratio call, and the sum stops after its cutoff or at the first
term that vanishes to order T, since every later term is a power-series
multiple of it.  That holds because each step divides only by factors
(1 - c q^e) with a nonzero constant term, here always e >= 1.  No sum
here has terms that never vanish, so none needs common.tail_sum.  R20's left
side is interchanged: sum_k q^k U_k / (1 - q^k) over the suffix sums
U_k = sum_{n>=k} t_n.  The inner 2-phi-1 is a weight, an inner term_sum
started from the outer term t_k / (1 - q^k), so no full product runs.
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

    def step(t, k):  # [N,k] (c/d)_k d^k q^{k(k+1)} / (dq)_k
        return t.apply_ratio(d, 2 * k, ((c / d, k - 1), (1, N - k + 1)), ((1, k), (d, k)))

    def weight(t, k):  # the inner sum, started from its outer term t / (1 - q^k)
        def inner(u, j):  # (1 - q^{k-N+j-1}) c q^{N+1} = -c q^{k+j} (1 - q^{N-k-j+1})
            up, down = ((1, k + j - 1), (1, N - k - j + 1)), ((d, k + j), (1, j))
            return u.apply_ratio(-c, k + j, up, down)

        return term_sum(t.div_binomial(1, k), inner, stop=N - k)

    total = term_sum(step(one, 1), step, start=1, stop=N, weight=weight)
    return poch_ratio(total, up=((d, 1, N),), down=((1, 1, N), (c, 1, N)))


def _alternating_terms(env, N: int, first: QSeries):
    """The terms n = 1..N from t_0 = first: from -1, [N,n] (c/d)_n d^n (-1)^{n-1}
    q^{n(n+1)/2} / (cq)_n, and from -1/(q)_N, the same over (q)_N, which is
    (-1)^{n-1} (c/d)_n d^n q^{n(n+1)/2} / ((q)_n (q)_{N-n} (cq)_n)."""
    c, d = env.get("c"), env.get("d")

    def step(t, n):
        return t.apply_ratio(-d, n, ((c / d, n - 1), (1, N - n + 1)), ((1, n), (c, n)))

    return ratio_terms(step(first, 1), step, start=1, stop=N)


def _r20() -> Identity:
    def lhs(env, N, one):
        # the weight is the harmonic partial sum sum_{k=1}^{n} q^k / (1 - q^k)
        return nested_q_power_sum(_alternating_terms(env, N, div_poch(-one, 1, 1, N)), one, div_q_n)

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
        return type(one).sum_of(_alternating_terms(env, N, -one), one.order)

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
        terms = _alternating_terms(env, N, div_poch(-one, 1, 1, N))
        head = type(one).sum_of(map(times_n, terms, count(1)), one.order)
        return head + phi_block(env.get("c"), env.get("d"), N, one)

    def rhs(env, N, one):
        c, d = env.get("c"), env.get("d")
        ratio = poch_ratio(one, up=((d, 1, N),), down=((c, 1, N),))
        head = div_poch(one - ratio, 1, 1, N).scale(c / (c - d))

        def step(t, k):  # (cq/d)_k (dq)_{N-k} (dq)^k / ((q)_k (q)_{N-k})
            return t.apply_ratio(d, 1, ((c / d, k), (1, N - k + 1)), ((d, N - k + 1), (1, k)))

        first = step(poch_ratio(one, up=((d, 1, N),), down=((1, 1, N),)), 1)
        total = term_sum(first, step, start=1, stop=N, weight=div_q_n)
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
