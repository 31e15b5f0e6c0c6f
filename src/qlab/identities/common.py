"""Shared helpers for identity side builders and constraint predicates.

A corollary's sum is its parent sum at fixed parameters, and each sum that
several stated sides write has one builder.  M_N(a), F(a, x) and S(d),
which more than one module calls, are here, with tail_sum for the sums
whose terms never vanish; the others stay in their module.  An infinite
sum whose terms are the termwise limit of a finite sum's terms is that
finite sum at the cutoff limit_cutoff gives, N = T + 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Optional

from ..series import QSeries, Scalar, term_sum
from .model import Identity, ParamEnv


def times_n(t: QSeries, n: int) -> QSeries:
    """The weight n * t_n."""
    return t.scale(n)


def div_q_n(t: QSeries, n: int) -> QSeries:
    """The weight t_n / (1 - q^n), for n >= 1."""
    return t.div_binomial(1, n)


def lambert_bracket(t: QSeries, x: Fraction, y: Fraction, m: int) -> QSeries:
    """t * (x q^m/(1 - x q^m) - y q^m/(1 - y q^m))
    = t * (x - y) q^m / ((1 - x q^m)(1 - y q^m)); at m = 0 it needs
    x, y != 1, and (1 - 1) raises ZeroConstantTermError."""
    return t.apply_ratio(x - y, m, down=((x, m), (y, m)))


def q_power_sum(one: QSeries, top: int, weight) -> QSeries:
    """sum_{n=1}^{top} weight(q^n, n) to the order of one."""
    return term_sum(one.shift(1), lambda u, n: u.shift(1), start=1, stop=top, weight=weight)


def limit_cutoff(one: QSeries) -> int:
    """N = T + 1 for the order T of one: the cutoff at which a finite sum is
    its N -> infinity limit to order T.

    In the n-th term the cutoff adds only factors 1 + O(q^{N-n+1}): the
    (1 - q^{N-n+1})..(1 - q^N) of [N,n] (q)_n, the 1/(x q^{N-n+1})_n of
    (x)_{N-n}/(x)_N, and the tail of (xq)_N.  A sum whose n-th term is
    O(q^{n-1}) therefore differs from its limit by O(q^N), nothing to order
    T.  At N = T the right sides of R03, R05, R12 and R14 already differ at
    q^T.  apply_ratio skips each added factor whose exponent lies past the
    term's tail, so the limit costs no pass that the infinite step would not."""
    return one.order + 1


def weighted_square_sum(a, N: int, one: QSeries) -> QSeries:
    """M_N(a) = sum_{n=1}^{N} [N,n] n a^n q^{n^2} / (aq)_n; its limit M(a) has
    1/(q)_n for [N,n]."""

    def step(t, n):  # [N,n] a^n q^{n^2} / (aq)_n
        return t.apply_ratio(a, 2 * n - 1, ((1, N - n + 1),), ((1, n), (a, n)))

    return term_sum(step(one, 1), step, start=1, stop=N, weight=times_n)


def finite_divisor_sum(a, x, N: int, one: QSeries) -> QSeries:
    """F(a, x) = sum_{n=1}^{N} [N,n] (q)_n (-1)^{n-1} a^n q^{n(n+1)/2} / ((xq)_n (1-q^n))."""

    def step(t, n):  # [N,n] (q)_n (-1)^{n-1} a^n q^{n(n+1)/2} / (xq)_n
        return t.apply_ratio(-a, n, ((1, N - n + 1),), ((x, n),))

    return term_sum(step(-one, 1), step, start=1, stop=N, weight=div_q_n)


def largest_part_sum(d, one: QSeries) -> QSeries:
    """S(d) = sum_{n>=1} n q^n (dq)_{n-1} / (q)_n."""

    def step(t, n):  # q^n (dq)_{n-1} / (q)_n
        return t.apply_ratio(1, 1, ((d, n - 1),), ((1, n),))

    return term_sum(one.apply_ratio(1, 1, down=((1, 1),)), step, start=1, weight=times_n)


def tail_sum(first: QSeries, x, ratio, start: int = 0, weight=None) -> QSeries:
    """sum_{n >= start} t_n W_n for terms that never vanish to order T, with
    t_start = first and t_n = t_{n-1} x R_n: R_n and W_n are the quotients
    prod_up (1 - c q^e) / prod_down (1 - c q^e) of the factor lists
    (up, down) that ratio(n) and weight(n) return (W_n = 1 without a
    weight), and their exponents grow with n.  The value is the sum's only
    inside its convergence region, |x| < 1.

    Let m >= start be the last index with a factor 2e <= T.  The terms
    t_start..t_m stream into sum_of, one apply_ratio call per step and one
    per weight.  Past m every factor is 1 + d q^e with 2e > T (d = -c above,
    c below), and any two such corrections multiply to O(q^(T+1)), so
    sum_{n>m} t_n W_n = t_m x/(1 - x) (1 + sum_e s_e q^e), where s_e sums
    d x^(i-m-1) over the step factors at index i and d x^(i-m-1) (1 - x)
    over the weight factors: one kernel call, its factors all far.  x = 1
    raises ZeroConstantTermError there; a zero term ends the sum, as in
    term_sum.
    """
    T, nothing = first.order, ((), ())

    def near(factors) -> bool:
        return any(2 * e <= T for side in factors for _, e in side)

    def terms():
        n, t, w = start, first, weight(start) if weight else nothing
        while True:
            yield t.apply_ratio(1, 0, *w) if weight else t
            r, w = ratio(n + 1), weight(n + 1) if weight else nothing
            if not (near(r) or near(w)):
                break
            n += 1
            t = t.apply_ratio(x, 0, *r)
            if t.is_zero():
                return
        s, step_x, rest = {}, 1, 1 - x  # s_e, and x^(i-m-1) at index i = n + 1, n + 2, ...
        while any(e <= T for side in r + w for _, e in side):
            for (up, down), scale in ((r, step_x), (w, step_x * rest)):
                for c, e in up:
                    if e <= T:
                        s[e] = s.get(e, 0) - c * scale
                for c, e in down:
                    if e <= T:
                        s[e] = s.get(e, 0) + c * scale
            n, step_x = n + 1, step_x * x
            r, w = ratio(n + 1), weight(n + 1) if weight else nothing
        yield t.apply_ratio(x, 0, [(-v, e) for e, v in sorted(s.items())], ((x, 0),))

    return type(first).sum_of(terms(), T)


def nested_q_power_sum(terms: Iterable[QSeries], one: QSeries, weight) -> QSeries:
    """sum_{j>=1} t_j sum_{n=1}^{j} weight(q^n, n) for terms t_1, t_2, ..., interchanged
    as sum_{n>=1} weight(q^n U_n, n) over the suffix sums U_n = sum_{j>=n} t_j."""
    t = list(terms)
    suffix = zip(range(len(t), 0, -1), accumulate(reversed(t), add))  # (n, U_n) from the top
    return type(one).sum_of((weight(u.shift(n), n) for n, u in suffix), one.order)


def sides_at(base: Identity, fix: Callable[[ParamEnv], ParamEnv]) -> tuple:
    """base's (name, builder) pairs, each builder called at fix(env): the
    sides of an entry that restates base at fixed parameters."""

    def at(builder):
        return lambda env, N, one: builder(fix(env), N, one)

    return tuple((name, at(builder)) for name, builder in base.sides)


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


def not_value(name: str, value: Scalar, why: str) -> Rule:
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


def pole_when(holds: Callable[[ParamEnv], bool], message: str) -> Rule:
    """message when holds(env): a pole on a product or ratio of parameters."""
    return lambda env: message if holds(env) else None


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
