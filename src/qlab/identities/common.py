"""Shared helpers for identity side builders and constraint predicates.

A corollary's sum is its parent sum at fixed parameters, and each sum that
several stated sides write has one builder.  M_N(a), F(a, x) and S(d),
which more than one module calls, are here, with tail_sum for the sums
whose terms never vanish and q_power_sum for the Lambert-type ones; the
others stay in their module.  An infinite sum whose terms are the
termwise limit of a finite sum's terms is that finite sum at the cutoff
limit_cutoff gives, N = T + 1.  A side that restates another side, at
that cutoff or at fixed parameters, is restated(builder, fix, limit);
sides_at restates every side of an entry.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Optional

from ..series import QSeries, Scalar, term_sum
from .model import Identity, ParamEnv, SideBuilder


def times_n(n: int):
    """The weight n."""
    return n, (), ()


def div_q_n(n: int):
    """The weight 1/(1 - q^n), for n >= 1."""
    return 1, (), ((1, n),)


def _times_q_power(u: QSeries, n: int, weight) -> QSeries:
    """u q^n W_n for W_n = weight(n) = (scalar, up, down)."""
    scalar, up, down = weight(n)
    return u.apply_ratio(scalar, n, up, down)


def q_power_sum(one: QSeries, indices: range, weight) -> QSeries:
    """sum_{n in indices, n <= T} q^n W_n to the order T of one: each term one
    kernel call on one, as no term is a ratio of the one before; the one
    builder of the Lambert-type sides, over the powers of their denominator."""
    T = one.order
    clipped = range(indices.start, min(indices.stop, T + 1))
    return type(one).sum_of((_times_q_power(one, n, weight) for n in clipped), T)


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

    def ratio(n):  # [N,n] a^n q^{n^2} / (aq)_n
        return a, 2 * n - 1, ((1, N - n + 1),), ((1, n), (a, n))

    return term_sum(one, ratio, 1, N, times_n)


def finite_divisor_sum(a, x, N: int, one: QSeries) -> QSeries:
    """F(a, x) = sum_{n=1}^{N} [N,n] (q)_n (-1)^{n-1} a^n q^{n(n+1)/2} / ((xq)_n (1-q^n))."""

    def ratio(n):  # [N,n] (q)_n (-1)^{n-1} a^n q^{n(n+1)/2} / (xq)_n
        return a if n == 1 else -a, n, ((1, N - n + 1),), ((x, n),)

    return term_sum(one, ratio, 1, N, div_q_n)


def largest_part_sum(d, one: QSeries) -> QSeries:
    """S(d) = sum_{n>=1} n q^n (dq)_{n-1} / (q)_n."""

    def ratio(n):  # q^n (dq)_{n-1} / (q)_n
        return 1, 1, ((d, n - 1),) if n > 1 else (), ((1, n),)

    return term_sum(one, ratio, 1, weight=times_n)


def tail_sum(one: QSeries, ratio, start: int = 0, weight=None) -> QSeries:
    """sum_{n >= start} t_n W_n, term_sum's sum with no stop, for terms that
    never vanish to order T: past start ratio(n) is (x, 0, up, down) with
    one x, weight(n) is (1, up, down), and their exponents grow with n.
    The value is the sum's only inside its convergence region, |x| < 1.

    Let m >= start be the last index before one whose factors all have
    2e > T.  Past m every factor is 1 + d q^e (d = -c above, c below), and
    any two such corrections multiply to O(q^(T+1)), so sum_{n>m} t_n W_n
    = t_m x/(1 - x) (1 + sum_e s_e q^e), where s_e sums d x^(i-m-1) over
    the ratio factors at index i and d x^(i-m-1) (1 - x) over the weight
    factors.  That is term_sum's last index, m + 1, with that ratio and
    weight 1: its innermost level, S'_m = 1 + x/(1 - x) (1 + sum_e s_e q^e)
    / W_m, is one kernel call.  x = 1 raises ZeroConstantTermError there;
    a zero term ends the sum, as in term_sum.
    """
    T, weigh = one.order, weight or (lambda n: (1, (), ()))
    ratios, weights = [ratio(start)], [weigh(start)]

    def near(r, w) -> bool:
        return any(2 * e <= T for side in (r[2], r[3], w[1], w[2]) for _, e in side)

    while near(r := ratio(start + len(ratios)), w := weigh(start + len(ratios))):
        ratios.append(r)
        weights.append(w)
    x, n, s, step_x = r[0], start + len(ratios), {}, 1  # s_e, and x^(i-m-1) at index i
    while any(e <= T for side in (r[2], r[3], w[1], w[2]) for _, e in side):
        if r[0] != x or r[1] or w[0] != 1:
            raise ValueError("tail_sum's far ratios are (x, 0, ...) and weights (1, ...)")
        for (up, down), scale in (((r[2], r[3]), step_x), ((w[1], w[2]), step_x * (1 - x))):
            for c, e in up:
                if e <= T:
                    s[e] = s.get(e, 0) - c * scale
            for c, e in down:
                if e <= T:
                    s[e] = s.get(e, 0) + c * scale
        n, step_x = n + 1, step_x * x
        r, w = ratio(n), weigh(n)
    ratios.append((x, 0, [(-v, e) for e, v in sorted(s.items())], ((x, 0),)))
    weights.append((1, (), ()))
    return term_sum(one, lambda i: ratios[i - start], start, start + len(ratios) - 1,
                    weight and (lambda i: weights[i - start]))


def nested_q_power_sum(terms: Iterable[QSeries], one: QSeries, weight) -> QSeries:
    """sum_{j>=1} t_j sum_{n=1}^{j} q^n W_n for terms t_1, t_2, ... and W_n =
    weight(n), interchanged as sum_{n>=1} q^n W_n U_n over the suffix sums
    U_n = sum_{j>=n} t_j."""
    t = list(terms)
    suffix = zip(range(len(t), 0, -1), accumulate(reversed(t), add))  # (n, U_n) from the top
    return type(one).sum_of((_times_q_power(u, n, weight) for n, u in suffix), one.order)


def restated(builder: SideBuilder, fix: Optional[Callable[[ParamEnv], ParamEnv]] = None,
              limit: bool = False) -> SideBuilder:
    """builder called at fix(env) (at env without fix) and, with limit, at
    N = limit_cutoff(one): a side that restates another at fixed parameters
    or as its N -> infinity limit."""

    def side(env, N, one):
        return builder(fix(env) if fix else env, limit_cutoff(one) if limit else N, one)

    return side


def sides_at(base: Identity, fix: Optional[Callable[[ParamEnv], ParamEnv]] = None,
             limit: bool = False) -> tuple:
    """base's (name, builder) pairs, each builder restated: the sides of an
    entry that restates base at fixed parameters or at its limit."""
    return tuple((name, restated(builder, fix, limit)) for name, builder in base.sides)


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
