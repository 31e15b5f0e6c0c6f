"""Classical transformations and summation lemmas used as prerequisites.

Entries whose statements involve Pochhammer symbols at q^{-N} (the Sears
transform and the finite Heine transform) are built here with those
factors eliminated through the inversion rule

    (q^{-N})_n / (G q^{1-N})_n = (q^{N-n+1})_n / (G^n q^n (q^{N-n}/G)_n),

applied mechanically to each side on its own, so every builder works in
non-negative powers of q.  The inversion rule itself is entry R38,
verified in the denominator-cleared polynomial form

    prod_{k=0}^{n-1} (x q^N - q^k) = (-1)^n q^{n(n-1)/2} (x q^{N-n+1})_n,

with the instances 0 <= n <= N combined through a free weight parameter.

R37 and R39 share one terminating sum, _terminating_sum: after the
inversion each side of the Sears and the finite Heine transformation is
the same (r+1)-phi-r in non-negative powers of q, r = 3 for R37 and
r = 2 for R39.
R40 and R41 share the 2-phi-1 of their left sides, _two_phi_one, and
R40's right side is that 2-phi-1 at (gamma/beta, z; alpha z; beta).
"""

from __future__ import annotations

from fractions import Fraction

from ..series import QMonomial, phi_series, poch_ratio, term_sum
from .common import (
    all_nonzero,
    distinct,
    div_q_n,
    domain_all,
    inside_unit,
    largest_part_sum,
    not_value,
    pole_when,
    q_power_sum,
    rules,
    sides_at,
    tail_sum,
)
from .entries import _r13
from .model import FINITE, INFINITE, Identity, ParamEnv


def _terminating_sum(uppers, lowers, x, N: int, one):
    """sum_{n=0}^{N} prod(uppers)_n (q^{N-n+1})_n x^n / (prod(lowers)_n (q)_n (x q^{N-n})_n):
    the terminating (r+1)phi(r)[q^{-N}, uppers; lowers, q^{1-N}/x; q, q]
    with its (q^{-N})_n / (q^{1-N}/x)_n inverted.  R37's Sears sums take
    r = 3, R39's finite-Heine sums r = 2."""

    def step(t, n):
        up = [(u, n - 1) for u in uppers] + [(1, N - n + 1)]
        down = [(v, n - 1) for v in lowers] + [(1, n), (x, N - n)]
        return t.apply_ratio(x, 0, up, down)

    return term_sum(one, step, stop=N)


def _r37() -> Identity:
    def lhs(env, N, one):
        A, B, C, D, E = (env.get(p) for p in "abcdz")
        return _terminating_sum((A, B, C), (D, E), D * E / (A * B * C), N, one)

    def rhs(env, N, one):
        A, B, C, D, E = (env.get(p) for p in "abcdz")
        de_bc = D * E / (B * C)
        inner = _terminating_sum((A, D / B, D / C), (D, de_bc), E / A, N, one)
        up, down = ((E / A, 0, N), (de_bc, 0, N)), ((E, 0, N), (D * E / (A * B * C), 0, N))
        return poch_ratio(inner, up=up, down=down)

    return Identity(
        id="R37",
        title="Sears transformation of a terminating balanced 4-phi-3",
        statement=(
            "4phi3[q^{-N}, A, B, C; D, E, ABCq^{1-N}/(DE); q, q] "
            "= (E/A)_N (DE/BC)_N / ((E)_N (DE/(ABC))_N) "
            "* 4phi3[q^{-N}, A, D/B, D/C; D, DE/(BC), Aq^{1-N}/E; q, q], "
            "with the q^{-N} factors eliminated via the inversion rule"
        ),
        params=("a", "b", "c", "d", "z"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("a", 0, "the balancing ratio needs A != 0"),
            not_value("b", 0, "the balancing ratio needs B != 0"),
            not_value("c", 0, "the balancing ratio needs C != 0"),
            not_value("d", 0, "the balancing ratio needs D != 0"),
            not_value("z", 0, "the balancing ratio needs E != 0"),
            not_value("d", 1, "(D)_n in a denominator vanishes"),
            not_value("z", 1, "(E)_N in a denominator vanishes"),
            pole_when(lambda env: env.get("a") * env.get("b") * env.get("c")
                      == env.get("d") * env.get("z"),
                      "ABC = DE: the balanced-column factor (1 - DE/(ABC)) vanishes"),
            pole_when(lambda env: env.get("a") == env.get("z"),
                      "A = E: the rewritten lower column (q^{N-n} E/A)_n hits a zero factor"),
            pole_when(lambda env: env.get("d") * env.get("z") == env.get("b") * env.get("c"),
                      "DE = BC: (DE/(BC))_n in a denominator vanishes"),
        ),
    )


def _r38() -> Identity:
    def lhs(env, N, one):
        w, x = env.get("a"), env.get("b")

        def step(t, n):  # w^n prod_{k=0}^{n-1} (x q^N - q^k)
            return (t * (one.apply_ratio(x, N) - one.shift(n - 1))).scale(w)

        return term_sum(one, step, stop=N)

    def rhs(env, N, one):
        w, x = env.get("a"), env.get("b")

        def step(t, n):  # (-w)^n q^{n(n-1)/2} (x q^{N-n+1})_n
            return t.apply_ratio(-w, n - 1, ((x, N - n + 1),))

        return term_sum(one, step, stop=N)

    return Identity(
        id="R38",
        title="Pochhammer inversion rule, in denominator-cleared form",
        statement=(
            "prod_{k=0}^{n-1} (x q^N - q^k) = (-1)^n q^{n(n-1)/2} (x q^{N-n+1})_n "
            "for 0 <= n <= N, instances combined with weight w^n"
        ),
        params=("a", "b"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        domain=all_nonzero("a", "b"),
    )


def _r39() -> Identity:
    def lhs(env, N, one):
        a, b, c, t = (env.get(p) for p in "abcd")
        return _terminating_sum((a, b), (c,), t, N, one)

    def rhs(env, N, one):
        a, b, c, t = (env.get(p) for p in "abcd")
        inner = _terminating_sum((a * b * t / c, b), (b * t,), c / b, N, one)
        up, down = ((c / b, 0, N), (b * t, 0, N)), ((c, 0, N), (t, 0, N))
        return poch_ratio(inner, up=up, down=down)

    return Identity(
        id="R39",
        title="finite Heine transformation of a terminating 3-phi-2",
        statement=(
            "sum_{n=0}^{N} (q^{-N})_n (a)_n (b)_n q^n / ((c)_n (q^{1-N}/t)_n (q)_n) "
            "= (c/b)_N (bt)_N / ((c)_N (t)_N) "
            "* sum_{n=0}^{N} (q^{-N})_n (abt/c)_n (b)_n q^n "
            "/ ((bq^{1-N}/c)_n (bt)_n (q)_n), "
            "with the q^{-N} factors eliminated via the inversion rule"
        ),
        params=("a", "b", "c", "d"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("b", 0, "the ratio c/b is undefined"),
            not_value("c", 0, "the ratio b/c is undefined"),
            not_value("d", 0, "the rewritten lower column (t q^{N-n})_n needs t != 0"),
            not_value("c", 1, "(c)_n in a denominator vanishes"),
            not_value("d", 1, "(t)_N and (t q^{N-n})_n in denominators vanish"),
            pole_when(lambda env: env.get("b") * env.get("d") == 1,
                      "b*t = 1: (bt)_n in a denominator vanishes"),
            distinct("b", "c", "the rewritten lower column (q^{N-n} c/b)_n hits a zero factor"),
        ),
        domain=all_nonzero("a"),
    )


_ALPHA_Z_POLE = pole_when(lambda env: env.get("a") * env.get("d") == 1,
                          "alpha*z = 1: (alpha z)_n in a denominator vanishes")


def _two_phi_one(alpha, beta, gamma, z, one):
    """2phi1(alpha, beta; gamma; z) for scalar parameters: its terms never
    vanish to order T, so tail_sum sums every term past those with a factor
    2e <= T in closed form, a series in z."""

    def ratio(n):  # (alpha)_n (beta)_n z^n / ((gamma)_n (q)_n)
        return ((alpha, n - 1), (beta, n - 1)), ((gamma, n - 1), (1, n))

    return tail_sum(one, z, ratio)


def _two_phi_one_side(env, N, one):  # 2phi1(a, b; c; d), the left side of R40 and R41
    return _two_phi_one(*(env.get(p) for p in "abcd"), one)


def _r40() -> Identity:
    def rhs(env, N, one):
        alpha, beta, gamma, z = (env.get(p) for p in "abcd")
        inner = _two_phi_one(gamma / beta, z, alpha * z, beta, one)
        up, down = ((beta, 0, None), (alpha * z, 0, None)), ((gamma, 0, None), (z, 0, None))
        return poch_ratio(inner, up=up, down=down)

    return Identity(
        id="R40",
        title="Heine transformation of a 2-phi-1",
        statement=(
            "2phi1(alpha, beta; gamma; z) = (beta)_inf (alpha z)_inf "
            "/ ((gamma)_inf (z)_inf) * 2phi1(gamma/beta, z; alpha z; beta)"
        ),
        params=("a", "b", "c", "d"),
        kind=INFINITE,
        sides=(("lhs", _two_phi_one_side), ("rhs", rhs)),
        constraint=rules(
            not_value("b", 0, "the ratio gamma/beta is undefined"),
            not_value("b", 1, "the transformed series' geometric tail diverges at beta = 1"),
            not_value("c", 1, "(gamma)_n in a denominator vanishes"),
            not_value("d", 1, "(z)_inf in a denominator vanishes and the tail diverges"),
            _ALPHA_Z_POLE,
        ),
        domain=domain_all(inside_unit("b", "d"), lambda env: abs(env.get("c")) < abs(env.get("b"))),
    )


def _r41() -> Identity:
    def rhs(env, N, one):
        alpha, beta, gamma, z = (env.get(p) for p in "abcd")
        inner = phi_series(
            [QMonomial(alpha, 0), QMonomial(gamma / beta, 0)],
            [QMonomial(gamma, 0), QMonomial(alpha * z, 0)],
            QMonomial(beta * z, 0),
            one,
        )
        return poch_ratio(inner, up=((alpha * z, 0, None),), down=((z, 0, None),))

    return Identity(
        id="R41",
        title="Jackson transformation of a 2-phi-1 into a 2-phi-2",
        statement=(
            "sum_{n>=0} (alpha)_n (beta)_n z^n / ((gamma)_n (q)_n) "
            "= ((alpha z)_inf/(z)_inf) sum_{n>=0} (alpha)_n (gamma/beta)_n "
            "(-beta z)^n q^{n(n-1)/2} / ((gamma)_n (alpha z)_n (q)_n)"
        ),
        params=("a", "b", "c", "d"),
        kind=INFINITE,
        sides=(("lhs", _two_phi_one_side), ("rhs", rhs)),
        constraint=rules(
            not_value("b", 0, "the ratio gamma/beta is undefined"),
            not_value("c", 1, "(gamma)_n in a denominator vanishes"),
            not_value("d", 1, "(z)_inf in a denominator vanishes and the tail diverges"),
            _ALPHA_Z_POLE,
        ),
        domain=domain_all(inside_unit("d"), all_nonzero("d")),
    )


def _r42() -> Identity:
    (_, sum_side), (_, power_side) = sides_at(_r13(), lambda env: ParamEnv(a=Fraction(1)))
    return Identity(
        id="R42",
        title="van Hamme's alternating harmonic identity",
        statement=(
            "sum_{k=1}^{n} q^k/(1-q^k) "
            "= sum_{k=1}^{n} [n,k] (-1)^{k-1} q^{k(k+1)/2} / (1-q^k)"
        ),
        params=(),
        kind=FINITE,
        sides=(("lhs", power_side), ("rhs", sum_side)),  # R13 at a = 1, its sides swapped
    )


def _r43() -> Identity:
    def lhs(env, N, one):
        x = env.get("a")
        harmonic = q_power_sum(one, N, div_q_n)
        return harmonic - q_power_sum(one, N - 1, lambda t, k: t.apply_ratio(x, down=((x, k),)))

    def rhs(env, N, one):
        x = env.get("a")
        head = one.scale(x / (1 - x))

        def step(t, k):  # [N,k] (q/x)_k x^k / (x q^{N-k})_k
            return t.apply_ratio(x, 0, ((1, N - k + 1), (1 / x, k)), ((1, k), (x, N - k)))

        return head - term_sum(step(one, 1), step, start=1, stop=N, weight=div_q_n)

    return Identity(
        id="R43",
        title="weighted harmonic-difference summation",
        statement=(
            "sum_{k=1}^{n} q^k/(1-q^k) - sum_{k=1}^{n-1} x q^k/(1-x q^k) "
            "= x/(1-x) - (1/(x)_n) sum_{k=1}^{n} [n,k] (q/x)_k (x)_{n-k} x^k / (1-q^k)"
        ),
        params=("a",),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("a", 0, "the quotient argument q/x is undefined"),
            not_value("a", 1, "(x)_n in a denominator vanishes and x/(1-x) has a pole"),
        ),
    )


def _r44() -> Identity:
    def lhs(env, N, one):
        d = env.get("d")
        return q_power_sum(one, one.order, lambda t, n: t.apply_ratio(down=((d, n), (1, n))))

    def rhs(env, N, one):
        # n q^n (q^{n+1})_inf / (d q^n)_inf = ((q)_inf/(dq)_inf) n q^n (dq)_{n-1} / (q)_n
        d = env.get("d")
        return poch_ratio(largest_part_sum(d, one), up=((1, 1, None),), down=((d, 1, None),))

    return Identity(
        id="R44",
        title="Uchimura-type divisor sum generalization",
        statement=(
            "sum_{n>=1} q^n / ((1-d q^n)(1-q^n)) "
            "= sum_{n>=1} n q^n (q^{n+1})_inf / (d q^n)_inf"
        ),
        params=("d",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
    )


def _r45() -> Identity:
    def lhs(env, N, one):
        d = env.get("d")

        def step(t, k):  # d^{k-1} (q/d)_{k-1} q^k / (q)_k
            return t.apply_ratio(d, 1, ((1 / d, k - 1),), ((1, k),))

        first = one.apply_ratio(1, 1, down=((1, 1),))
        return term_sum(first, step, start=1)

    def rhs(env, N, one):
        d = env.get("d")
        return (one - poch_ratio(one, up=((1, 1, None),), down=((d, 1, None),))).scale(1 / (1 - d))

    return Identity(
        id="R45",
        title="auxiliary quotient-sum evaluation",
        statement=(
            "sum_{k>=1} d^{k-1} (q/d)_{k-1} q^k / (q)_k "
            "= (1/(1-d)) (1 - (q)_inf/(dq)_inf)"
        ),
        params=("d",),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("d", 0, "the quotient argument q/d is undefined"),
            not_value("d", 1, "the prefactor 1/(1-d) has a pole"),
        ),
    )


def entries() -> list:
    return [_r37(), _r38(), _r39(), _r40(), _r41(), _r42(), _r43(), _r44(), _r45()]
