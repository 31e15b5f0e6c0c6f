"""The four-parameter sum transformation, its finite form and corollaries.

Every sum but the Lambert-type one is a term_sum or, when its terms never
vanish, a common.tail_sum: a ratio function returns each term's ratio to
the one before, a scalar, a power of q and a few factors (1 - c q^e), and
the sum is nested from its last index in, one apply_ratio call per index.
A ratio divides only by factors with a nonzero constant term; where that
needs a parameter off 1, the identity's constraint excludes it.  A finite
form normalised by (x)_N carries the symbol in its ratio, as
(x)_{N-n}/(x)_N = 1/(x q^{N-n})_n; for the descending (a)_{N-n} the last
index, n = N, still divides by (1 - a).  A tail_sum adds the terms past
its near factors in closed form, in one more call.

The Lambert-type sum sum_m (a^m - b^m)/(1 - c q^{m+n}) has no term ratio;
it is summed over the powers of its denominator, each term one
apply_ratio call for a bracket x q^k/(1 - x q^k) - y q^k/(1 - y q^k), whose
k = 0 term a/(1-a) - b/(1-b) is the closed form of its constant
coefficients: common.q_power_sum at c = 1, R12's right side.  In the
nested right side of R02 the bracket's index k enters the outer terms t_n
only through q^{kn}, so the double sum is interchanged: one bracket call
per k on G_k = sum_n q^{kn} t_n, with the t_n from the forward stream
ratio_terms.  The bracket carries q^k, so G_k is needed only to order
T - k, and QSeries.strided_sum adds the t_n it uses at their offsets kn
over one denominator.  Sampling stays inside the stated convergence
regions so those closed forms are the values of the sums.

The right sides of R02-R05 weight each term by a Lambert bracket
(x - y) q^m/((1 - x q^m)(1 - y q^m)), and all are _bracket_sum: R02's and
R04's restate R03's and R05's.  Its ratio takes shift 1, so a term
carries the bracket's q^{n-1}, x - y rides in the first ratio, as a
weight is never zero, and the weight is the rest.

The right sides of R01, R02 and R04 are those of R12, R03 and R05 at
N = T + 1, and R09 is R07 there on both sides: each is the termwise
limit of its finite form, exact to order T at that cutoff
(common.limit_cutoff), and each is written as that form restated there,
common.restated(side, limit=True) or, for R09, common.sides_at(R07,
limit=True).  R08 is R07 restated at c = 1/z.
"""

from __future__ import annotations

from itertools import islice

from ..series import QSeries, poch_ratio, ratio_terms, term_sum
from .common import (
    all_nonzero,
    distinct,
    domain_all,
    inside_unit,
    not_value,
    pole_when,
    q_power_sum,
    restated,
    rules,
    sides_at,
    tail_sum,
)
from .model import FINITE, INFINITE, Identity, ParamEnv


_AD_POLES = (
    pole_when(lambda env: env.get("a") * env.get("d") == 1,
              "a*d = 1: (ad)_m in a denominator vanishes and ad/(1-ad) has a pole"),
    pole_when(lambda env: env.get("a") * env.get("d") == env.get("b"),
              "a*d = b: the prefactor denominator (ad - b) vanishes"),
)


def _quotient_sum_lhs(env: ParamEnv, c_factor, one: QSeries) -> QSeries:
    """sum_{n>=1} (b/a)_n a^n / ((1 - c_factor*q^n) (b)_n), a tail_sum."""
    a, b = env.get("a"), env.get("b")
    ba = b / a

    def ratio(n):  # (b/a)_n a^n / (b)_n
        return a, 0, ((ba, n - 1),), ((b, n - 1),)

    return tail_sum(one, ratio, 1, lambda n: (1, (), ((c_factor, n),)))


def _finite_quotient_sum_lhs(env: ParamEnv, c_factor, N: int, one: QSeries) -> QSeries:
    """sum_{n=1}^{N} [N,n] (b/a)_n (q)_n (a)_{N-n} a^n / ((1 - c_factor*q^n)(b)_n (a)_N)."""
    a, b = env.get("a"), env.get("b")

    def ratio(n):  # [N,n] (b/a)_n (q)_n a^n / ((b)_n (a q^{N-n})_n)
        return a, 0, ((1, N - n + 1), (b / a, n - 1)), ((a, N - n), (b, n - 1))

    return term_sum(one, ratio, 1, N, lambda n: (1, (), ((c_factor, n),)))


def _lambert_bracket_sum(env: ParamEnv, N: int, one: QSeries) -> QSeries:
    """sum_{m>=1} (a^m - b^m)(1 - q^{mN})/(1 - q^m), R12's right side:
    (1 - q^{mN})/(1 - q^m) = sum_{j=0}^{N-1} q^{mj}, and summed over m the
    power q^{mj} gives the bracket a q^j/(1 - a q^j) - b q^j/(1 - b q^j)."""
    a, b = env.get("a"), env.get("b")
    return q_power_sum(one, range(N), lambda j: (a - b, (), ((a, j), (b, j))))


def _bracket_sum(first, x, y, c, uppers, lowers, N: int, one: QSeries) -> QSeries:
    """first/(x - y) sum_{n=1}^{N} [N,n] (q)_n (cq)_{N-n} c^{n-1} prod_u (u)_{n-1}
    / ((cq)_N prod_l (l)_{n-1}) (x q^{n-1}/(1 - x q^{n-1}) - y q^{n-1}/(1 - y q^{n-1}))
    over the columns u in uppers and l in lowers, the right side of R03 and R05."""

    def ratio(n):  # [N,n] (q)_n (cq)^{n-1} prod_u (u)_{n-1} / (prod_l (l)_{n-1} (c q^{N-n+1})_n)
        if n == 1:
            return first, 0, ((1, N),), ((c, N),)
        up, down = [(u, n - 2) for u in uppers], [(l, n - 2) for l in lowers]
        return c, 1, ((1, N - n + 1), *up), ((c, N - n + 1), *down)

    return term_sum(one, ratio, 1, N, lambda n: (1, (), ((x, n - 1), (y, n - 1))))  # the rest of the bracket


def _r01() -> Identity:
    def lhs(env, N, one):
        return _quotient_sum_lhs(env, 1, one)

    return Identity(
        id="R01",
        title="Ramanujan's quotient-Pochhammer sum",
        statement=(
            "sum_{n>=1} (b/a)_n a^n / ((1-q^n)(b)_n) "
            "= sum_{m>=1} (a^m - b^m)/(1-q^m)"
        ),
        params=("a", "b"),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", restated(_lambert_bracket_sum, limit=True))),  # R12's right side
        constraint=rules(
            not_value("a", 0, "the quotient argument b/a is undefined"),
            not_value("a", 1, "the geometric tail in a diverges"),
            not_value("b", 1, "(b)_n in a denominator vanishes, as does the tail in b"),
        ),
        domain=inside_unit("a", "b"),
    )


def _r02() -> Identity:
    def lhs(env, N, one):
        return _quotient_sum_lhs(env, env.get("c"), one)

    def rhs_nested(env, N, one):
        a, b, c, T = env.get("a"), env.get("b"), env.get("c"), one.order

        def ratio(n):  # (c)_n (b/c)^n / (q)_n
            return b / c, 0, ((c, n - 1),), ((1, n),)

        # interchanged: sum_k (a - b) c^k q^k / ((1 - a q^k)(1 - b q^k)) G_k
        t = [one, *islice(ratio_terms(one, ratio, 1), T + 1)]

        sum_of = type(one).sum_of

        def g(k):  # G_k = sum_n q^{kn} t_n to order T - k; G_0 keeps the geometric tail in b/c
            if k == 0:
                return sum_of(t[: T + 1] + [u.div_binomial(b / c, 0) for u in t[T + 1 :]], T)
            return type(one).strided_sum(t, k, T - k)

        terms = (g(k).apply_ratio((a - b) * c**k, k, down=((a, k), (b, k)), order=T)
                 for k in range(T, -1, -1))
        return poch_ratio(sum_of(terms, T), up=((b / c, 0, None),), down=((b, 0, None),))

    return Identity(
        id="R02",
        title="three-parameter extension of R01 (two equivalent right sides)",
        statement=(
            "sum_{n>=1} (b/a)_n a^n / ((1-c q^n)(b)_n) "
            "= sum_{m>=0} (b/c)_m c^m/(b)_m (a q^m/(1-a q^m) - b q^m/(1-b q^m)) "
            "= (b/c)_inf/(b)_inf sum_{n>=0} (c)_n (b/c)^n/(q)_n "
            "sum_{m>=1} (a^m - b^m)/(1 - c q^{m+n})"
        ),
        params=("a", "b", "c"),
        kind=INFINITE,
        sides=(
            ("lhs", lhs),
            ("rhs", restated(_r03().side("rhs"), limit=True)),
            ("rhs_nested", rhs_nested),
        ),
        constraint=rules(
            not_value("a", 0, "the quotient argument b/a is undefined"),
            not_value("c", 0, "the quotient argument b/c is undefined"),
            not_value("a", 1, "the geometric tail in a diverges"),
            not_value("b", 1, "(b)_n in a denominator vanishes"),
            distinct("b", "c", "the outer geometric tail in b/c diverges"),
        ),
        domain=domain_all(inside_unit("a", "b"), lambda env: abs(env.get("b")) < abs(env.get("c"))),
    )


def _r03() -> Identity:
    def lhs(env, N, one):
        return _finite_quotient_sum_lhs(env, env.get("c"), N, one)

    def rhs(env, N, one):
        a, b, c = env.get("a"), env.get("b"), env.get("c")
        return _bracket_sum(a - b, a, b, c, (b / c,), (b,), N, one)

    return Identity(
        id="R03",
        title="finite three-parameter transformation",
        statement=(
            "sum_{n=1}^{N} [N,n] (b/a)_n (q)_n (a)_{N-n} a^n / ((1-c q^n)(b)_n (a)_N) "
            "= sum_{n=1}^{N} [N,n] (b/c)_{n-1} (q)_n (cq)_{N-n} c^{n-1} / ((b)_{n-1} (cq)_N) "
            "* (a q^{n-1}/(1-a q^{n-1}) - b q^{n-1}/(1-b q^{n-1}))"
        ),
        params=("a", "b", "c"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("a", 0, "the quotient argument b/a is undefined"),
            not_value("c", 0, "the quotient argument b/c is undefined"),
            not_value("a", 1, "(a)_N in a denominator vanishes"),
            not_value("b", 1, "(b)_n in a denominator vanishes"),
        ),
        domain=all_nonzero("b"),
    )


def _r04() -> Identity:
    def lhs(env, N, one):
        a, b, c, d = env.get("a"), env.get("b"), env.get("c"), env.get("d")

        ba, cd = b / a, c / d

        def ratio(n):  # (b/a)_n (c/d)_n (ad)^n / ((b)_n (cq)_n)
            return a * d, 0, ((ba, n - 1), (cd, n - 1)), ((b, n - 1), (c, n))

        return tail_sum(one, ratio, 1)

    return Identity(
        id="R04",
        title="infinite four-parameter transformation",
        statement=(
            "sum_{n>=1} (b/a)_n (c/d)_n (ad)^n / ((b)_n (cq)_n) "
            "= (a-b)(d-c)/(ad-b) sum_{m>=0} (a)_m (bd/c)_m c^m / ((b)_m (ad)_m) "
            "* (ad q^m/(1-ad q^m) - b q^m/(1-b q^m))"
        ),
        params=("a", "b", "c", "d"),
        kind=INFINITE,
        sides=(("lhs", lhs), ("rhs", restated(_r05().side("rhs"), limit=True))),
        constraint=rules(
            not_value("a", 0, "the quotient argument b/a is undefined"),
            not_value("d", 0, "the quotient argument c/d is undefined"),
            not_value("c", 0, "the quotient argument bd/c is undefined"),
            not_value("b", 1, "(b)_n in a denominator vanishes"),
            *_AD_POLES,
        ),
        domain=lambda env: abs(env.get("a") * env.get("d")) < 1,
    )


def _r05() -> Identity:
    def lhs(env, N, one):
        a, b, c, d = env.get("a"), env.get("b"), env.get("c"), env.get("d")
        ad = a * d

        def ratio(n):  # [N,n] (q)_n (b/a)_n (c/d)_n (ad)^n / ((b)_n (cq)_n (ad q^{N-n})_n)
            up = ((1, N - n + 1), (b / a, n - 1), (c / d, n - 1))
            return ad, 0, up, ((ad, N - n), (b, n - 1), (c, n))

        return term_sum(one, ratio, 1, N)

    def rhs(env, N, one):
        a, b, c, d = env.get("a"), env.get("b"), env.get("c"), env.get("d")
        ad = a * d
        prefactor = (a - b) * (d - c) / (ad - b)
        return _bracket_sum(prefactor * (ad - b), ad, b, c, (a, b * d / c), (b, ad), N, one)

    return Identity(
        id="R05",
        title="finite four-parameter transformation",
        statement=(
            "sum_{n=1}^{N} [N,n] (q)_n (b/a)_n (c/d)_n (ad)_{N-n} (ad)^n "
            "/ ((b)_n (cq)_n (ad)_N) "
            "= (a-b)(d-c)/(ad-b) sum_{n=1}^{N} [N,n] (a)_{n-1} (bd/c)_{n-1} (q)_n "
            "(cq)_{N-n} c^{n-1} / ((b)_{n-1} (cq)_N (ad)_{n-1}) "
            "* (ad q^{n-1}/(1-ad q^{n-1}) - b q^{n-1}/(1-b q^{n-1}))"
        ),
        params=("a", "b", "c", "d"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("a", 0, "the quotient argument b/a is undefined"),
            not_value("d", 0, "the quotient argument c/d is undefined"),
            not_value("c", 0, "the quotient argument bd/c is undefined"),
            not_value("b", 1, "(b)_n in a denominator vanishes"),
            *_AD_POLES,
        ),
        domain=all_nonzero("b"),
    )


def _r06() -> Identity:
    def lhs(env, N, one):
        z, c, d = env.get("z"), env.get("c"), env.get("d")

        def ratio(n):  # [N,n] (q)_n (c/d)_n (-zd)^n q^{n(n+1)/2} / ((zq)_n (cq)_n)
            return -z * d, n, ((1, N - n + 1), (c / d, n - 1)), ((z, n), (c, n))

        return term_sum(one, ratio, 1, N)

    def rhs(env, N, one):
        z, c, d = env.get("z"), env.get("c"), env.get("d")

        def ratio(n):  # [N,n] (q)_n (zdq/c)_{n-1} (cq)^n / ((zq)_n (c q^{N-n+1})_n)
            if n == 1:  # (1 - q^N) cq / ((1 - c q^N)(1 - zq)), and the prefactor (z/c)(c - d)
                return z * (c - d), 1, ((1, N),), ((c, N), (z, 1))
            return c, 1, ((1, N - n + 1), (z * d / c, n - 1)), ((c, N - n + 1), (z, n))

        return term_sum(one, ratio, 1, N)

    return Identity(
        id="R06",
        title="finite transformation with triangular-number exponents",
        statement=(
            "sum_{n=1}^{N} [N,n] (q)_n (c/d)_n (-zd)^n q^{n(n+1)/2} / ((zq)_n (cq)_n) "
            "= (z/c)(c-d) sum_{n=1}^{N} [N,n] (q)_n (zdq/c)_{n-1} (cq)_{N-n} (cq)^n "
            "/ ((zq)_n (cq)_N)"
        ),
        params=("z", "c", "d"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        constraint=rules(
            not_value("c", 0, "the prefactor z/c and the argument zdq/c are undefined"),
            not_value("d", 0, "the quotient argument c/d is undefined"),
        ),
        domain=all_nonzero("z"),
    )


def _r07() -> Identity:
    def lhs(env, N, one):
        z, c = env.get("z"), env.get("c")

        def ratio(n):  # [N,n] (q)_n (zc)^n q^{n^2} / ((zq)_n (cq)_n)
            return z * c, 2 * n - 1, ((1, N - n + 1),), ((z, n), (c, n))

        return term_sum(one, ratio, 1, N)

    def rhs(env, N, one):
        z, c = env.get("z"), env.get("c")

        def ratio(n):  # [N,n] (q)_n (cq)^n / ((zq)_n (c q^{N-n+1})_n), times z at n = 1
            return c * z if n == 1 else c, 1, ((1, N - n + 1),), ((c, N - n + 1), (z, n))

        return term_sum(one, ratio, 1, N)

    return Identity(
        id="R07",
        title="finite transformation with square exponents",
        statement=(
            "sum_{n=1}^{N} [N,n] (q)_n (zc)^n q^{n^2} / ((zq)_n (cq)_n) "
            "= z sum_{n=1}^{N} [N,n] (q)_n (cq)_{N-n} (cq)^n / ((zq)_n (cq)_N)"
        ),
        params=("z", "c"),
        kind=FINITE,
        sides=(("lhs", lhs), ("rhs", rhs)),
        domain=all_nonzero("z", "c"),
    )


def _r08() -> Identity:
    # R07 at c = 1/z
    return Identity(
        id="R08",
        title="finite rank-style sum at reciprocal parameters",
        statement=(
            "sum_{n=1}^{N} [N,n] (q)_n q^{n^2} / ((zq)_n (q/z)_n) "
            "= z sum_{n=1}^{N} [N,n] (q)_n (q/z)_{N-n} (q/z)^n / ((zq)_n (q/z)_N)"
        ),
        params=("z",),
        kind=FINITE,
        sides=sides_at(_r07(), lambda env: ParamEnv(z=env.get("z"), c=1 / env.get("z"))),
        constraint=rules(not_value("z", 0, "the reciprocal argument q/z is undefined")),
    )


def _r09() -> Identity:
    return Identity(
        id="R09",
        title="Andrews' square-exponent sum identity",
        statement=(
            "sum_{n>=1} z^n c^n q^{n^2} / ((zq)_n (cq)_n) "
            "= z sum_{n>=1} (cq)^n / (zq)_n"
        ),
        params=("z", "c"),
        kind=INFINITE,
        sides=sides_at(_r07(), limit=True),
        domain=all_nonzero("z", "c"),
    )


def entries() -> list:
    return [_r01(), _r02(), _r03(), _r04(), _r05(), _r06(), _r07(), _r08(), _r09()]
