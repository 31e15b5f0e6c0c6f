"""Finite analogues of the five classical notebook entries and their limits.

R10-R14 are the cutoff-N forms; R15-R19 the corresponding limits as N
grows.  A limit side whose terms are the termwise limit of a finite
side's terms is that side at N = T + 1 (common.limit_cutoff), written
common.restated(side, limit=True): R15's sum is R10's left side, R18's
left side R13's and R19's right side R14's, and R16 is
common.sides_at(R11, limit=True).  R17 is R01 under its own id, so its
right side is R12's.  The stabilization tests compare each finite form
with a limit side that keeps its own builder.  The Lambert-type right
sides of R12, R13 and R14 are each one common.q_power_sum.
"""

from __future__ import annotations

import dataclasses

from ..series import poch_ratio, term_sum
from .common import (
    all_nonzero,
    div_q_n,
    domain_all,
    finite_divisor_sum,
    inside_unit,
    not_value,
    q_power_sum,
    restated,
    rules,
    sides_at,
    tail_sum,
    weighted_square_sum,
)
from .four_parameter import _finite_quotient_sum_lhs, _lambert_bracket_sum, _r01
from .model import FINITE, INFINITE, Identity


def _r10() -> Identity:
    def lhs(env, N, one):
        a, b = env.get("a"), env.get("b")

        def ratio(n):  # [N,n] (-b/a)_n a^n q^{n(n+1)/2} / (bq)_n
            return (a, n, ((1, N - n + 1), (-b / a, n - 1)), ((1, n), (b, n))) if n else (1, 0, (), ())

        return term_sum(one, ratio, 0, N)

    def rhs(env, N, one):
        a, b = env.get("a"), env.get("b")

        def ratio(n):  # [N,n] (-a/b)_n (bq)^n / (b q^{N-n+1})_n
            return (b, 1, ((1, N - n + 1), (-a / b, n - 1)), ((1, n), (b, N - n + 1))) if n else (1, 0, (), ())

        return term_sum(one, ratio, 0, N)

    return Identity(
        id="R10",
        title="finite form of notebook entry 1",
        statement=(
            "sum_{n=0}^{N} [N,n] (-b/a)_n a^n q^{n(n+1)/2} / (bq)_n "
            "= sum_{n=0}^{N} [N,n] (-a/b)_n (bq)_{N-n} (bq)^n / (bq)_N"
        ),
        params=("a", "b"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("a", 0, "the quotient argument -b/a is undefined"),
            not_value("b", 0, "the quotient argument -a/b is undefined"),
        ),
    )


def _r11() -> Identity:
    def lhs(env, N, one):
        a = env.get("a")
        return poch_ratio(weighted_square_sum(a, N, one), up=((a, 1, N),))

    def rhs(env, N, one):
        return finite_divisor_sum(env.get("a"), 0, N, one)

    return Identity(
        id="R11",
        title="finite form of notebook entry 2",
        statement=(
            "(aq)_N sum_{n=1}^{N} [N,n] n a^n q^{n^2} / (aq)_n "
            "= sum_{n=1}^{N} [N,n] (q)_n (-1)^{n-1} a^n q^{n(n+1)/2} / (1-q^n)"
        ),
        params=("a",),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        domain=all_nonzero("a"),
    )


def _r12() -> Identity:
    def lhs(env, N, one):  # R03's left side at c = 1
        return _finite_quotient_sum_lhs(env, 1, N, one)

    return Identity(
        id="R12",
        title="finite form of notebook entry 3",
        statement=(
            "sum_{n=1}^{N} [N,n] (q)_n (b/a)_n (a)_{N-n} a^n / ((b)_n (1-q^n)(a)_N) "
            "= sum_{m>=1} (a^m - b^m)(1 - q^{mN}) / (1-q^m)"
        ),
        params=("a", "b"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", _lambert_bracket_sum)),
        constraint=rules(
            not_value("a", 0, "the quotient argument b/a is undefined"),
            not_value("a", 1, "(a)_N in a denominator vanishes and the tail diverges"),
            not_value("b", 1, "(b)_n in a denominator vanishes and the tail diverges"),
        ),
        domain=inside_unit("a", "b"),
    )


def _r13() -> Identity:
    def lhs(env, N, one):
        a = env.get("a")
        return finite_divisor_sum(a, a, N, one)

    def rhs(env, N, one):
        a = env.get("a")
        return q_power_sum(one, range(1, N + 1), lambda n: (a, (), ((a, n),)))

    return Identity(
        id="R13",
        title="finite form of notebook entry 4",
        statement=(
            "sum_{n=1}^{N} [N,n] (-1)^{n-1} a^n q^{n(n+1)/2} (q)_n / ((1-q^n)(aq)_n) "
            "= sum_{n=1}^{N} a q^n / (1 - a q^n)"
        ),
        params=("a",),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        domain=all_nonzero("a"),
    )


def _r14() -> Identity:
    def lhs(env, N, one):
        a = env.get("a")

        def ratio(n):  # [N,n] (q)_n (q)_{n-1} a^n / ((a)_n (a q^{N-n})_n)
            # at n = 1 (q)_{n-1} is an empty product: (1 - q^N) a / ((1 - a q^{N-1})(1 - a))
            return a, 0, ((1, N - n + 1), (1, n - 1)) if n > 1 else ((1, N),), ((a, N - n), (a, n - 1))

        return term_sum(one, ratio, 1, N, div_q_n)

    def rhs(env, N, one):
        # sum_{k=0}^{N-1} a q^k/(1 - a q^k)^2; for N > T it is R19's sum_{m>=1} m a^m/(1 - q^m)
        # taken over the powers of its denominator, as sum_{m>=1} m (a q^k)^m = a q^k/(1 - a q^k)^2.
        # The rearrangement is exact as formal power series: for j >= 1, [q^j] of
        # both forms is sum_{mk=j} m a^m, and [q^0] is a/(1-a)^2 on both.
        a = env.get("a")
        return q_power_sum(one, range(N), lambda k: (a, (), ((a, k), (a, k))))

    return Identity(
        id="R14",
        title="finite form of notebook entry 5",
        statement=(
            "sum_{n=1}^{N} [N,n] (q)_n (q)_{n-1} (a)_{N-n} a^n / ((a)_n (1-q^n)(a)_N) "
            "= sum_{n=1}^{N} a q^{n-1} / (1 - a q^{n-1})^2"
        ),
        params=("a",),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("a", 1, "(a)_n in a denominator vanishes and a/(1-a)^2 has a pole"),
        ),
        domain=all_nonzero("a"),
    )


def _r15() -> Identity:
    def lhs(env, N, one):
        a, b = env.get("a"), env.get("b")
        return poch_ratio(one, up=((-a, 1, None),), down=((b, 1, None),))

    return Identity(
        id="R15",
        title="notebook entry 1 (product form)",
        statement=(
            "(-aq)_inf / (bq)_inf "
            "= sum_{n>=0} (-b/a)_n a^n q^{n(n+1)/2} / ((q)_n (bq)_n)"
        ),
        params=("a", "b"),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", restated(_r10().side("lhs"), limit=True))),
        constraint=rules(not_value("a", 0, "the quotient argument -b/a is undefined")),
        domain=all_nonzero("b"),
    )


def _r16() -> Identity:
    return Identity(
        id="R16",
        title="notebook entry 2 (weighted square exponents)",
        statement=(
            "(aq)_inf sum_{n>=1} n a^n q^{n^2} / ((q)_n (aq)_n) "
            "= sum_{n>=1} (-1)^{n-1} a^n q^{n(n+1)/2} / (1-q^n)"
        ),
        params=("a",),
        kind=INFINITE,
        sides=sides_at(_r11(), limit=True),
        domain=all_nonzero("a"),
    )


def _r17() -> Identity:
    return dataclasses.replace(_r01(), id="R17", title="notebook entry 3 (limit of the finite form)")


def _r18() -> Identity:
    def rhs(env, N, one):
        a = env.get("a")
        return term_sum(one, lambda n: (a, 1, (), ()), 1, weight=div_q_n)  # a^n q^n / (1 - q^n)

    return Identity(
        id="R18",
        title="notebook entry 4 (divisor-type right side)",
        statement=(
            "sum_{n>=1} (-1)^{n-1} a^n q^{n(n+1)/2} / ((1-q^n)(aq)_n) "
            "= sum_{n>=1} a^n q^n / (1-q^n)"
        ),
        params=("a",),
        kind=INFINITE,
        sides=(("lhs", restated(_r13().side("lhs"), limit=True)), ("rhs", rhs)),
        domain=all_nonzero("a"),
    )


def _r19() -> Identity:
    def lhs(env, N, one):
        a = env.get("a")

        def ratio(n):  # (q)_{n-1} a^n / (a)_n, (q)_0 = 1
            return a, 0, ((1, n - 1),) if n > 1 else (), ((a, n - 1),)

        return tail_sum(one, ratio, 1, div_q_n)

    return Identity(
        id="R19",
        title="notebook entry 5 (Lambert-type right side)",
        statement=(
            "sum_{n>=1} (q)_{n-1} a^n / ((1-q^n)(a)_n) = sum_{m>=1} m a^m / (1-q^m)"
        ),
        params=("a",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", restated(_r14().side("rhs"), limit=True))),
        constraint=rules(
            not_value("a", 1, "(a)_n in a denominator vanishes and the tails diverge"),
        ),
        domain=domain_all(inside_unit("a"), all_nonzero("a")),
    )


def entries() -> list:
    return [_r10(), _r11(), _r12(), _r13(), _r14(), _r15(), _r16(), _r17(), _r18(), _r19()]
