"""Independent oracles the tests freeze expected values from.

These deliberately avoid the package's series kernel where possible:
the pentagonal expansion is a direct lattice sum, the product oracle a
naive convolution over plain lists, the Gaussian binomial a quotient of
factorial polynomials evaluated through Fraction arithmetic.  The
``ref_*`` functions are naive per-coefficient Fraction versions of the
QSeries kernels, and the ``ref_laurent_*`` ones of the LaurentZQSeries
kernels on per-q-row dicts, with the same truncation and edge-case
conventions, which also build the bivariate crank and rank functions
factor by factor and term by term; ``RefSeries`` folds the former into a series type that the
side builders run on.  The ``ref_*`` nested sums at the end rebuild each inner
sum from 1 for every outer index and multiply it in by a full product:
the form that the builders, whose inner sums start from the outer term
or are interchanged with the outer sum, are checked against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from qlab.series import QMonomial, QSeries, div_poch, phi_series, poch


def pentagonal_coeffs(order: int) -> List[Fraction]:
    """Coefficients of prod_{n>=1} (1 - q^n) via the pentagonal lattice sum."""
    out = [Fraction(0)] * (order + 1)
    k = 0
    while True:
        exps = [k * (3 * k - 1) // 2, k * (3 * k + 1) // 2]
        if k == 0:
            exps = [0]
        placed = False
        for e in exps:
            if e <= order:
                out[e] += Fraction(-1) ** k
                placed = True
        if not placed and k > 0:
            break
        k += 1
    return out


def convolve(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """Plain-list Cauchy product truncated to the shorter input."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def poly_mul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divide_exact(num: List[Fraction], den: List[Fraction]) -> List[Fraction]:
    """Exact polynomial long division (remainder must vanish)."""
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1] / den[-1]
        out[i] = coeff
        for j, d in enumerate(den):
            num[i + j] -= coeff * d
    assert all(c == 0 for c in num), "division was not exact"
    return out


def one_minus_q_pow(e: int) -> List[Fraction]:
    out = [Fraction(0)] * (e + 1)
    out[0] = Fraction(1)
    out[e] = Fraction(-1)
    return out


def gaussian_binomial_poly(n_top: int, n_bottom: int) -> List[Fraction]:
    """[n_top, n_bottom] as (q)_N / ((q)_n (q)_{N-n}) by exact division."""
    if n_bottom < 0 or n_bottom > n_top:
        return [Fraction(0)]
    num = [Fraction(1)]
    for k in range(n_top - n_bottom + 1, n_top + 1):
        num = poly_mul(num, one_minus_q_pow(k))
    den = [Fraction(1)]
    for k in range(1, n_bottom + 1):
        den = poly_mul(den, one_minus_q_pow(k))
    return poly_divide_exact(num, den)


def ref_partitions(n: int) -> List[Tuple[int, ...]]:
    """The partitions of n in descending lexicographic order: the sorted
    set of the compositions of n, each with its parts sorted descending."""
    found = set()
    for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        found.add(tuple(sorted(parts + [run] if n else parts, reverse=True)))
    return sorted(found, reverse=True)


# -- reference QSeries kernels (lists of Fraction, truncated to the shorter) --


def ref_add(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    return [x + y for x, y in zip(a, b)]


def ref_sub(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    return [x - y for x, y in zip(a, b)]


def ref_scale(a: List[Fraction], value: Fraction) -> List[Fraction]:
    return [x * value for x in a]


def ref_shift(a: List[Fraction], exp: int) -> List[Fraction]:
    return ([Fraction(0)] * exp + list(a))[: len(a)]


def ref_truncate(a: List[Fraction], order: int) -> List[Fraction]:
    return list(a[: order + 1])


def ref_inverse(a: List[Fraction]) -> List[Fraction]:
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum(a[j] * out[n - j] for j in range(1, n + 1)) / a[0])
    return out


def ref_mul_binomial(a: List[Fraction], c: Fraction, e: int) -> List[Fraction]:
    """a * (1 - c q^e), truncated to len(a)."""
    return [a[n] - (c * a[n - e] if n >= e else 0) for n in range(len(a))]


def ref_div_binomial(a: List[Fraction], c: Fraction, e: int) -> List[Fraction]:
    """a / (1 - c q^e) = sum_k c^k q^(ke) a, truncated to len(a)."""
    if e == 0:
        return [x / (1 - c) for x in a]
    out = [Fraction(0)] * len(a)
    for n in range(len(a)):
        for k in range(n // e + 1):
            out[n] += c**k * a[n - k * e]
    return out


def ref_first_difference(a: List[Fraction], b: List[Fraction]) -> Optional[int]:
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return n
    return None


class RefSeries:
    """A truncated series stored as one Fraction per coefficient, whose every
    operation is a fold of the ref_* kernels above: the naive series type that
    side builders also run on, as builder(env, N, RefSeries.one(T)), so a
    QSeries kernel fault that changes both sides of an identity alike shows."""

    __slots__ = ("c",)

    def __init__(self, coeffs: List[Fraction]):
        self.c = list(coeffs)

    @classmethod
    def one(cls, order: int) -> "RefSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def sum_of(cls, terms, order: int) -> "RefSeries":
        total = [Fraction(0)] * (order + 1)
        for t in terms:
            total = ref_add(total, t.c)
        return cls(total)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(self.c)

    def is_zero(self) -> bool:
        return not any(self.c)

    def __add__(self, other: "RefSeries") -> "RefSeries":
        return RefSeries(ref_add(self.c, other.c))

    def __sub__(self, other: "RefSeries") -> "RefSeries":
        return RefSeries(ref_sub(self.c, other.c))

    def __neg__(self) -> "RefSeries":
        return self.scale(-1)

    def __mul__(self, other: "RefSeries") -> "RefSeries":
        return RefSeries(convolve(self.c, other.c))

    def scale(self, value) -> "RefSeries":
        return RefSeries(ref_scale(self.c, value))

    def shift(self, exp: int) -> "RefSeries":
        return RefSeries(ref_shift(self.c, exp))

    def truncate(self, order: int) -> "RefSeries":
        return RefSeries(ref_truncate(self.c, order))

    def apply_ratio(self, scalar=1, shift=0, up=(), down=(), constant=0, order=None) -> "RefSeries":
        """constant + self * the ratio to order (self's by default), self
        zero-extended or truncated to it first."""
        size = len(self.c) if order is None else order + 1
        a = ref_shift(ref_scale((self.c + [Fraction(0)] * size)[:size], scalar), shift)
        for c, e in up:
            a = ref_mul_binomial(a, c, e)
        for c, e in down:
            a = ref_div_binomial(a, c, e)
        return RefSeries([a[0] + constant] + a[1:])

    def mul_binomial(self, coeff, exp: int) -> "RefSeries":
        return RefSeries(ref_mul_binomial(self.c, coeff, exp))

    def div_binomial(self, coeff, exp: int) -> "RefSeries":
        return RefSeries(ref_div_binomial(self.c, coeff, exp))

    def first_difference(self, other: "RefSeries") -> Optional[int]:
        return ref_first_difference(self.c, other.c)


def ref_term_sum(first, step, start=0, stop=None, weight=None):
    """sum_{n >= start} weight(t_n, n) (t_n without a weight) for t_start = first
    and t_n = step(t_{n-1}, n), through n = stop or up to the first t_n zero
    to order T: stepped forward by closures and folded with ref_add, the
    summation the oracles below use, independent of qlab's term_sum."""
    total, n, t = [Fraction(0)] * (first.order + 1), start, first
    while (stop is None or n <= stop) and any(t.coeffs):
        total = ref_add(total, list((weight(t, n) if weight else t).coeffs))
        if n == stop:
            break
        n += 1
        t = step(t, n)
    return type(first)(total)


def _ref_apply(t, scalar, shift, up, down):
    """t times a ratio's data, one mul_binomial or div_binomial per factor."""
    t = t.scale(scalar).shift(shift)
    for c, e in up:
        t = t.mul_binomial(c, e)
    for c, e in down:
        t = t.div_binomial(c, e)
    return t


def ref_tail_sum(one, ratio, start=0, weight=None):
    """tail_sum's sum, stepped term by term from one with one mul_binomial or
    div_binomial per factor: the terms from start up to the last index n
    with a factor e <= T, whose weight is applied the same way, and then
    the rest, where every ratio is x and every factor 1 to order T, as
    t_n x / (1 - x)."""
    T, nothing = one.order, (1, (), ())
    n, t, total = start, _ref_apply(one, *ratio(start)), one.scale(0)
    while True:
        w_scalar, w_up, w_down = weight(n) if weight else nothing
        total = total + _ref_apply(t, w_scalar, 0, w_up, w_down)
        r, w = ratio(n + 1), weight(n + 1) if weight else nothing
        if all(e > T for side in (r[2], r[3], w[1], w[2]) for _, e in side):
            return total + t.scale(r[0]).div_binomial(r[0], 0)
        n, t = n + 1, _ref_apply(t, *r)


# -- reference Laurent-in-z kernels: a series is a list of q-rows, each a
# -- {z-exponent: Fraction} dict without zero values, truncated to the shorter


def _clean(row: Dict[int, Fraction]) -> Dict[int, Fraction]:
    return {k: v for k, v in row.items() if v != 0}


def ref_laurent_add(a: List[dict], b: List[dict]) -> List[dict]:
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for k, v in rb.items():
            row[k] = row.get(k, Fraction(0)) + v
        out.append(_clean(row))
    return out


def ref_laurent_mul_binomial(a: List[dict], c: Fraction, s: int, e: int) -> List[dict]:
    """a * (1 - c z^s q^e); e >= 1, or e = 0 with s = 0."""
    rows = [dict(r) for r in a]
    for n in range(e, len(a)):
        for k, v in a[n - e].items():
            rows[n][k + s] = rows[n].get(k + s, Fraction(0)) - c * v
    return [_clean(r) for r in rows]


def ref_laurent_div_binomial(a: List[dict], c: Fraction, s: int, e: int) -> List[dict]:
    """a / (1 - c z^s q^e); e >= 1, or e = 0 with s = 0 and c != 1."""
    if e == 0:
        return [_clean({k: v / (1 - c) for k, v in r.items()}) for r in a]
    rows = [dict(r) for r in a]
    for n in range(e, len(a)):
        for k, v in rows[n - e].items():
            rows[n][k + s] = rows[n].get(k + s, Fraction(0)) + c * v
    return [_clean(r) for r in rows]


def ref_laurent_z_derivative(a: List[dict]) -> List[dict]:
    return [{k: k * v for k, v in r.items() if k != 0} for r in a]


def ref_laurent_positive_z_part(a: List[dict]) -> List[dict]:
    return [{k: v for k, v in r.items() if k > 0} for r in a]


def ref_laurent_set_z_one(a: List[dict]) -> List[Fraction]:
    return [sum(r.values(), Fraction(0)) for r in a]


def ref_crank_bivariate(N: int, T: int) -> List[dict]:
    """(q)_N / ((zq)_N (q/z)_N) to order T, one binomial at a time."""
    rows = [{0: Fraction(1)}] + [{} for _ in range(T)]
    for k in range(1, N + 1):
        rows = ref_laurent_mul_binomial(rows, Fraction(1), 0, k)
    for k in range(1, N + 1):
        rows = ref_laurent_div_binomial(rows, Fraction(1), 1, k)
        rows = ref_laurent_div_binomial(rows, Fraction(1), -1, k)
    return rows


def ref_rank_bivariate(N: int, T: int) -> List[dict]:
    """sum_{n=0}^{N} [N,n] (q)_n q^{n^2} / ((zq)_n (q/z)_n) to order T, each
    term rebuilt as q^{n^2} (1 - q^{N-n+1})...(1 - q^N) over its 2n binomials."""
    total = [{} for _ in range(T + 1)]
    for n in range(N + 1):
        term = [{0: Fraction(1)} if m == n * n else {} for m in range(T + 1)]
        for j in range(N - n + 1, N + 1):
            term = ref_laurent_mul_binomial(term, Fraction(1), 0, j)
        for k in range(1, n + 1):
            term = ref_laurent_div_binomial(term, Fraction(1), 1, k)
            term = ref_laurent_div_binomial(term, Fraction(1), -1, k)
        total = ref_laurent_add(total, term)
    return total


# -- nested sums in rebuild-and-multiply form --------------------------------


def ref_phi_block(c, d, N: int, T: int):
    """The 2-phi-1 block of R20's right side, each inner 2-phi-1 rebuilt by
    phi_series and multiplied into its outer term."""

    def step(t, k):  # [N,k] d^k q^{k(k+1)} / (dq)_k
        t = t.mul_binomial(1, N - k + 1).div_binomial(1, k)
        return t.scale(d).shift(2 * k).div_binomial(d, k)

    def weight(t, k):
        numerators = [QMonomial(d, 1), QMonomial(d, N + 1)]
        inner = phi_series(numerators, [QMonomial(d, k + 1)], QMonomial(c / d, k), QSeries.one(T))
        return t.div_binomial(1, k) * inner

    total = ref_term_sum(step(QSeries.one(T), 1), step, start=1, stop=N, weight=weight)
    prefactor = poch(c / d, 0, None, T) * poch(d, 1, None, T)
    prefactor = div_poch(prefactor, 1, 1, N)
    prefactor = div_poch(prefactor, c, 1, None)
    return div_poch(prefactor, d, N + 1, None) * total


def _ref_lambert_difference(a, b, c, shift: int, T: int):
    """sum_{m>=1} (a^m - b^m) / (1 - c q^{m+shift}), summed from 1."""

    def bracket(t, k):  # t (a - b) q^k / ((1 - a q^k)(1 - b q^k))
        return t.shift(k).scale(a - b).div_binomial(a, k).div_binomial(b, k)

    return ref_term_sum(QSeries.one(T), lambda t, k: t.scale(c).shift(shift), stop=T, weight=bracket)


def ref_r02_rhs_nested(a, b, c, T: int):
    """R02's nested right side, its Lambert sum rebuilt for every n."""

    def step(t, n):  # (c)_n (b/c)^n / (q)_n
        return t.mul_binomial(c, n - 1).div_binomial(1, n).scale(b / c)

    def weight(t, n):
        return t * _ref_lambert_difference(a, b, c, n, T)

    # terms 0..T, then the rest: past T the step is b/c to order T, so the
    # terms from T + 1 on sum to the (T + 1)-th over 1 - b/c
    t, total = QSeries.one(T), QSeries.zero(T)
    for n in range(T + 1):
        total = total + weight(t, n)
        t = step(t, n + 1)
    total = total + weight(t, T + 1).div_binomial(b / c, 0)
    return div_poch(poch(b / c, 0, None, T), b, 0, None) * total


def ref_r20_lhs(c, d, N: int, T: int):
    """R20's left side, each term built from its Pochhammer symbols and the
    harmonic sum sum_{k=1}^{n} q^k/(1 - q^k) rebuilt from 1 for every n and
    multiplied in."""
    total = QSeries.zero(T)
    for n in range(1, N + 1):
        t = poch(c / d, 0, n, T).scale(-((-d) ** n)).shift(n * (n + 1) // 2)
        for coeff, length in ((1, n), (1, N - n), (c, n)):
            t = div_poch(t, coeff, 1, length)
        harmonic = QSeries.zero(T)
        for k in range(1, n + 1):
            harmonic = harmonic + QSeries.one(T).shift(k).div_binomial(1, k)
        total = total + t * harmonic
    return total


def ref_dq_block(d, x, T: int):
    """sum_{k>=1} d^k q^{k(k+1)} / ((q)_k (dq)_k (1-q^k))
    * sum_{m>=0} (dq)_m (x q^k)^m / ((dq^{k+1})_m (q)_m), inner sums from 1."""

    def inner(k):
        def step(u, m):
            u = u.mul_binomial(d, m).div_binomial(d, k + m).div_binomial(1, m)
            return u.scale(x).shift(k)

        return ref_term_sum(QSeries.one(T), step)

    def step(t, k):
        return t.scale(d).shift(2 * k).div_binomial(1, k).div_binomial(d, k)

    def weight(t, k):
        return t.div_binomial(1, k) * inner(k)

    return ref_term_sum(step(QSeries.one(T), 1), step, start=1, weight=weight)


def ref_square_sum(T: int, weight):
    """sum_{j>=1} q^{j^2} / (q)_j^2 * sum_{n=1}^{j} weight(q^n, n), inner sums
    from q^1."""

    def inner(j):
        first = QSeries.monomial(1, 1, T)
        return ref_term_sum(first, lambda t, n: t.shift(1), start=1, stop=j, weight=weight)

    def step(t, j):
        return t.shift(2 * j - 1).div_binomial(1, j).div_binomial(1, j)

    return ref_term_sum(step(QSeries.one(T), 1), step, start=1, weight=lambda t, j: t * inner(j))
