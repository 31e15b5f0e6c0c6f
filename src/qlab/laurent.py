"""Series in q whose coefficients are Laurent polynomials in z.

Used for the bivariate finite rank and crank generating functions: every
z or 1/z in them rides on at least one power of q, so the coefficient of
z^k q^n vanishes whenever |k| > n.  Every series here keeps that bound:
the constructor rejects a column z^k with a nonzero term below q^|k|,
div_binomial a factor (1 - c z^s q^e) with |s| > e, and div_z_pair a pair
with e < 1.

Layout.  A series of truncation order T is one flat QSeries of (T + 1)*W
entries, W = 2T + 2: the coefficient of z^k q^n sits at index
n*W + k + T + 1, over the flat series' one denominator.  This is a
Kronecker substitution, z = x and q = x^W, shifted by x^(T + 1); T alone
fixes it, so no operation re-lays a series.  Values are immutable.  A
z-free ratio, a scalar, a power q^v and factors (1 - c q^e), is one
QSeries.apply_ratio call with shift v*W and factors (c, e*W): whole rows.

Division by (1 - c z^s q^e), 1 <= |s| <= e, is B = A / (1 - c x^E) with
E = e*W + s: the recurrence B[m] = A[m] + c*B[m - E], run over whole
blocks, B[b:b+E] from A[b:b+E] and B[b-E:b] by one C-level map each, then
reduced once.  Nothing aliases: the term c^j A_{n,k} z^(k+js) q^(n+je)
lands at index (n + je)*W + k + js + T + 1, where |k + js| <= n + je.  For
n + je <= T the column k + js + T + 1 lies in [1, 2T + 1], so the index
decodes to exactly (n + je, k + js).  For n + je > T the index is at
least (n + je)(W - 1) + T + 1 >= (T + 1)W, past row T.  So each index below
(T + 1)W holds its own coefficient of the quotient, which keeps |k| <= n.
A width of 2T + 1 would push z^T q^T out of row T, and an offset of T
would put z^-(T+1) q^(T+1) into it.

Exactness for c = p/q.  The recurrence runs as b[m] = q^K a[m] +
p*(b[m - E] // q) with K = T//e, over den * q^K.  Unrolled, b[m] =
sum_j p^j q^(K-j) a[m - jE], and a term with a[m - jE] != 0 and
m < (T + 1)W has je <= T, so j <= K; for m - E the terms have j + 1 <= K,
so b[m - E] is divisible by q and the floor division is exact.

The z-pair.  The crank and rank functions are symmetric under z <-> 1/z
(Andrews-Garvan 1988), and so is (1 - z q^e)(1 - q^e/z) = 1 - (z + 1/z)
q^e + q^(2e).  div_z_pair solves B[m][k] = A'[m][k] + B[m-e][k-1] +
B[m-e][k+1] - B[m-2e][k], A' = A q^shift (1 - q^up), row by row over the
columns k = 0..m only, then mirrors columns 1..m onto -1..-m by a
reversed slice (k = 0 reads column -1 of row m - e, mirrored before).
It needs A symmetric, checked by one slice compare per row.  Nothing
aliases: row m writes only |k| <= m and reads columns 0..m <= T of the
input's rows m - shift and m - shift - up and of row m - 2e, inside
those rows, and columns -1..m + 1 of row m - e.  Column m + 1 leaves that
row only at m = T, as index (m - e + 1)W: column -(T + 1) of row
m - e + 1 <= T, which nothing writes.  A read column |k| > n of a row n
is zero, as the quotient is there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle
from math import lcm
from operator import add, mul, sub
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .series import QSeries, _reduced

Scalar = Union[int, Fraction]


def _row_width(order: int) -> int:
    return 2 * order + 2  # W, the flat entries of one q-row at order T


def _make(flat: QSeries, order: int) -> "LaurentZQSeries":
    s = object.__new__(LaurentZQSeries)
    s._flat, s._order = flat, order
    return s


class LaurentZQSeries:
    """Truncated series sum_{n<=T} sum_{|k|<=n} a_{n,k} z^k q^n, flat at width 2T + 2."""

    __slots__ = ("_flat", "_order")

    def __init__(self, columns: Mapping[int, QSeries], order: int):
        """The series sum_k columns[k] z^k, each column of order >= order and
        zero below q^|k|."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        cols: Dict[int, QSeries] = {}
        for k, col in columns.items():
            if col.order < order:
                raise ValueError(f"column z^{k} has order {col.order} < {order}")
            col = col.truncate(order)
            if any(col._nums[: abs(k)]):
                raise ValueError(f"column z^{k} has a nonzero term below q^{abs(k)}")
            if not col.is_zero():
                cols[k] = col
        w = _row_width(order)
        den = lcm(*(col._den for col in cols.values()))
        nums = [0] * ((order + 1) * w)
        for k, col in cols.items():
            m = den // col._den
            nums[k + order + 1 :: w] = [m * x for x in col._nums]
        self._flat, self._order = _reduced(nums, den), order

    @classmethod
    def zero(cls, order: int) -> "LaurentZQSeries":
        return cls({}, order)

    @classmethod
    def from_q_series(cls, s: QSeries) -> "LaurentZQSeries":
        return cls({0: s}, s.order)

    @property
    def order(self) -> int:
        return self._order

    def row(self, n: int) -> Dict[int, Fraction]:
        """The nonzero coefficients of q^n, as {z-exponent: rational}."""
        t = self._order
        if not 0 <= n <= t:
            raise IndexError(f"q^{n} outside truncation order {t}")
        w, den = _row_width(t), self._flat._den
        cells = self._flat._nums[n * w : (n + 1) * w]
        return {j - t - 1: Fraction(x, den) for j, x in enumerate(cells) if x}

    def is_zero(self) -> bool:
        return self._flat.is_zero()

    # -- arithmetic -----------------------------------------------------

    def _flat_at(self, order: int) -> QSeries:
        """The flat series at a lower or equal order: a slice of each row."""
        t = self._order
        if order > t:
            raise ValueError(f"a series of order {t} has no terms to order {order}")
        if order == t:
            return self._flat
        a, w = self._flat._nums, _row_width(t)
        rows = (a[i : i + _row_width(order)] for i in range(t - order, (order + 1) * w, w))
        return _reduced(tuple(chain.from_iterable(rows)), self._flat._den)

    def __add__(self, other: "LaurentZQSeries") -> "LaurentZQSeries":
        """The sum at the lower order, as one sum of the flat series."""
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return _make(self._flat_at(order) + other._flat_at(order), order)

    def apply_ratio(self, scalar: Scalar = 1, shift: int = 0, up: Sequence[Tuple[Scalar, int]] = (),
                    down: Sequence[Tuple[Scalar, int]] = ()) -> "LaurentZQSeries":
        """self * scalar * q^shift * prod_up (1 - c q^e) / prod_down (1 - c q^e),
        a z-free ratio, as one QSeries.apply_ratio call on the flat series
        with q^W in place of q; the zero series still checks the factors."""
        w = _row_width(self._order)
        flat = self._flat.apply_ratio(
            scalar, shift * w, [(c, e * w) for c, e in up], [(c, e * w) for c, e in down])
        return _make(flat, self._order)

    def div_binomial(self, coeff: Scalar, zexp: int, qexp: int) -> "LaurentZQSeries":
        """self / (1 - coeff z^zexp q^qexp), |zexp| <= qexp; see the module docstring."""
        if abs(zexp) > qexp:
            raise ValueError(f"z^{zexp} must ride on at least q^{abs(zexp)}, not q^{qexp}")
        if zexp == 0:
            return self.apply_ratio(down=((coeff, qexp),))
        order = self._order
        jump = qexp * _row_width(order) + zexp
        a, den = list(self._flat._nums), self._flat._den
        p, q = coeff.numerator, coeff.denominator
        if q != 1:
            qk = q ** (order // qexp)
            a = [qk * x for x in a]
            den *= qk
        for b in range(jump, len(a), jump):
            prev = a[b - jump : b]
            if q != 1:
                prev = map(p.__mul__, map(q.__rfloordiv__, prev))
            elif p != 1:
                prev = map(p.__mul__, prev)
            a[b : b + jump] = map(add, a[b : b + jump], prev)
        return _make(_reduced(a, den), order)

    def div_z_pair(self, e: int, shift: int = 0, up: Optional[int] = None,
                   constant: Scalar = 0) -> "LaurentZQSeries":
        """constant + self q^shift (1 - q^up) / ((1 - z q^e)(1 - q^e/z)), e >= 1,
        one row pass over the columns k >= 0 of a self symmetric under
        z <-> 1/z (ValueError otherwise); see the module docstring."""
        # a list: slices of a tuple would stock the tuple free lists
        t, a, den = self._order, list(self._flat._nums), self._flat._den
        w = _row_width(t)
        zs = range(t + 1, len(a), w)  # the index of z^0 q^n, n = 0..T
        if e < 1 or shift < 0 or (up or 0) < 0:
            raise ValueError(f"div_z_pair needs e >= 1, shift >= 0 and up >= 0, not {e}, {shift}, {up}")
        if any(a[i + 1 : i + n + 1] != a[i - 1 : i - n - 1 : -1] for n, i in enumerate(zs)):
            raise ValueError("div_z_pair needs a series symmetric under z <-> 1/z")
        b, ew = [0] * len(a), e * w
        for m in range(shift, t + 1):
            i = zs[m]
            j = i - shift * w
            row = a[j : j + m + 1]
            if up is not None and m - shift >= up:
                row = map(sub, row, a[j - up * w : j - up * w + m + 1])
            if m >= e:
                p = i - ew
                row = map(add, row, map(add, b[p - 1 : p + m], b[p + 1 : p + m + 2]))
                if m >= 2 * e:
                    r = p - ew
                    row = map(sub, row, b[r : r + m + 1])
            row = list(row)
            b[i : i + m + 1] = row
            b[i - m : i] = row[:0:-1]
        p, q = constant.numerator, constant.denominator
        if q != 1:
            b = [q * x for x in b]
        b[t + 1] += p * den
        return _make(_reduced(b, den * q), t)

    # -- extraction transforms ------------------------------------------

    def z_derivative(self) -> "LaurentZQSeries":
        """Apply z * d/dz: the z^k column picks up a factor k."""
        t = self._order
        nums = tuple(map(mul, self._flat._nums, cycle(range(-t - 1, t + 1))))
        return _make(_reduced(nums, self._flat._den), t)

    def positive_z_part(self) -> "LaurentZQSeries":
        """The columns z^1..z^T, copied row by row; the rest is zero."""
        t, a = self._order, self._flat._nums
        lo, w = t + 2, _row_width(t)  # z^1 sits at column t + 2
        rows = ((0,) * lo + a[i + lo : i + w] for i in range(0, len(a), w))
        return _make(_reduced(tuple(chain.from_iterable(rows)), self._flat._den), t)

    def positive_moment(self) -> QSeries:
        """sum_{k>=1} k a_{n,k} per q^n: positive_z_part, z_derivative and
        set_z_one in one pass, the first positive moment of a rank or crank."""
        t, a = self._order, list(self._flat._nums)  # see div_z_pair
        rows = enumerate(range(t + 1, len(a), _row_width(t)))
        return _reduced([sum(map(mul, a[i + 1 : i + n + 1], range(1, n + 1))) for n, i in rows],
                        self._flat._den)

    def set_z_one(self) -> QSeries:
        a, w = self._flat._nums, _row_width(self._order)
        return _reduced([sum(a[i : i + w]) for i in range(0, len(a), w)], self._flat._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return all(self.row(n) == other.row(n) for n in range(order + 1))

    __hash__ = None

    def __repr__(self) -> str:
        a, w = self._flat._nums, _row_width(self._order)
        columns = sum(1 for j in range(w) if any(a[j::w]))
        return f"LaurentZQSeries(order={self._order}, nonzero z-columns={columns})"
