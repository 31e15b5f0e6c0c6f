"""Shared helpers for identity side builders and constraint predicates."""

from __future__ import annotations

from typing import Callable, Optional

from ..rational import Rat
from ..series import QSeries, term_sum
from .model import ParamEnv


def binomial_step(t: QSeries, N: int, n: int) -> QSeries:
    """t * [N,n] / [N,n-1] = t * (1 - q^(N-n+1)) / (1 - q^n), the Gaussian
    binomial's term ratio; 1 <= n <= N, so the divisor has constant term 1."""
    return t.mul_binomial(1, N - n + 1).div_binomial(1, n)


def times_n(t: QSeries, n: int) -> QSeries:
    """The weight n * t_n."""
    return t.scale(n)


def div_q_n(t: QSeries, n: int) -> QSeries:
    """The weight t_n / (1 - q^n), for n >= 1."""
    return t.div_binomial(1, n)


def lambert_bracket(t: QSeries, x: Rat, y: Rat, m: int) -> QSeries:
    """t * (x q^m/(1 - x q^m) - y q^m/(1 - y q^m))
    = t * (x - y) q^m / ((1 - x q^m)(1 - y q^m)); at m = 0 it needs
    x, y != 1, and (1 - 1) raises ZeroConstantTermError."""
    return t.shift(m).scale(x - y).div_binomial(x, m).div_binomial(y, m)


def q_power_sum(T: int, top: int, weight: Callable[[QSeries, int], QSeries]) -> QSeries:
    """sum_{n=1}^{top} weight(q^n, n), to order T."""
    return term_sum(
        QSeries.monomial(1, 1, T), lambda t, n: t.shift(1), start=1, stop=top, weight=weight
    )


# -- constraint rule combinators -------------------------------------------
#
# A rule maps an environment to a pole description or None; a constraint
# is the first violation among its rules.


Rule = Callable[[ParamEnv], Optional[str]]


def rules(*parts: Rule) -> Callable[[ParamEnv], Optional[str]]:
    def constraint(env: ParamEnv) -> Optional[str]:
        for part in parts:
            msg = part(env)
            if msg:
                return msg
        return None

    return constraint


def nonzero(name: str, why: str) -> Rule:
    def rule(env: ParamEnv) -> Optional[str]:
        if env.get(name) == 0:
            return f"{name} = 0: {why}"
        return None

    return rule


def not_one(name: str, why: str) -> Rule:
    def rule(env: ParamEnv) -> Optional[str]:
        if env.get(name) == 1:
            return f"{name} = 1: {why}"
        return None

    return rule


def not_value(name: str, value: Rat, why: str) -> Rule:
    def rule(env: ParamEnv) -> Optional[str]:
        if env.get(name) == value:
            return f"{name} = {value}: {why}"
        return None

    return rule


def distinct(first: str, second: str, why: str) -> Rule:
    def rule(env: ParamEnv) -> Optional[str]:
        if env.get(first) == env.get(second):
            return f"{first} = {second}: {why}"
        return None

    return rule


# -- sampling-domain combinators --------------------------------------------


def inside_unit(*names: str) -> Callable[[ParamEnv], bool]:
    def ok(env: ParamEnv) -> bool:
        return all(abs(env.get(name)) < 1 for name in names)

    return ok


def all_nonzero(*names: str) -> Callable[[ParamEnv], bool]:
    def ok(env: ParamEnv) -> bool:
        return all(env.get(name) != 0 for name in names)

    return ok


def domain_all(*predicates: Callable[[ParamEnv], bool]) -> Callable[[ParamEnv], bool]:
    def ok(env: ParamEnv) -> bool:
        return all(p(env) for p in predicates)

    return ok
