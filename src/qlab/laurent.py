"""Series in q whose coefficients are Laurent polynomials in z.

Used for the bivariate finite rank and crank generating functions: every
z or 1/z in those functions rides on at least one power of q, so the
coefficient of z^k q^n vanishes whenever |k| > n and each q-row stays a
finite Laurent polynomial.

Layout.  A series of truncation order T is one flat QSeries read row by
row: for a layout of width W starting at z^lo, the coefficient of
z^k q^n sits at index n*W + (k - lo), for lo <= k < lo + W and n <= T, all
over the flat series' one denominator.  So the flat series is the bivariate
one at z^k q^n = x^(n*W + k - lo), and the layout may hold columns that
are zero.  A z-free ratio, a scalar, a power q^v and factors (1 - c q^e),
is one QSeries.apply_ratio call with shift v*W and factors (c, e*W): a
power of q^W moves every entry down whole rows and keeps its column.
Values are immutable.

Division by (1 - c z^s q^e), s != 0, e >= 1, is B = A / (1 - c x^E) with
E = e*W + s on a layout wide enough that no term aliases: the recurrence
B[m] = A[m] + c*B[m - E], run over whole blocks, B[b:b+E] from A[b:b+E]
and B[b-E:b] by one C-level map each, then reduced once.  The quotient
keeps only the columns it occupies, its rows moved down in place, so a
stored layout stays at its occupied span (for the rank at T = 80, N = 6,
153 columns instead of 194) and the next division's scan for that span,
one any() per column from both ends, stops after a column or two.

Width rule.  Let the nonzero entries of A occupy columns klo..khi and set
J = T//e + 1.  The division re-lays A over klo + min(0, s)*J ..
khi + max(0, s)*J, so every column k of A lies at least |s|*J inside the
side that s moves towards, and W > |s|*J.  The term c^j A_{n,k} z^(js)
q^(je) of A / (1 - c z^s q^e) lands at flat index
(n + je)*W + (k - lo) + js.  For j < J its column k + js lies inside the
layout, so the index decodes to exactly (n + je, k + js), in row
n + je.  Rows at most T need je <= T, that is j < J, so every term of the
result up to row T is one of these.  For j >= J the row n + je >= Je >
T, and the index is at least (T + 1)*W: for s > 0 it is at least
(n + je)*W; for s < 0 the offset (k - lo) + js is at least -(j - J)*|s|,
and the rows past T + 1 add at least (j - J)*e*W > (j - J)*|s| back.  So
each index below (T + 1)*W holds exactly its own coefficient of the
quotient.  Padding by J - 1 = T//e instead fails at j = J, where a term of
row T + 1 or later lands |s| entries before (T + 1)*W, in row T.

Exactness for c = p/q.  The recurrence runs as
b[m] = q^K a[m] + p*(b[m - E] // q) with K = T//e, over den * q^K.
Unrolled, b[m] = sum_j p^j q^(K-j) a[m - jE].  By the width rule a term
with a[m - jE] != 0 and m < (T + 1)*W has j < J, so j <= K; for m - E
the terms have j + 1 <= K, so b[m - E] is divisible by q and the floor
division is exact, as in QSeries.apply_ratio.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle
from math import gcd, lcm
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .series import QSeries, ZeroConstantTermError, _reduced

Scalar = Union[int, Fraction]


def _make(flat: QSeries, lo: int, width: int, order: int) -> "LaurentZQSeries":
    s = object.__new__(LaurentZQSeries)
    s._flat, s._lo, s._width, s._order = flat, lo, width, order
    return s


def _span(a: Sequence[int], w: int, lo: int) -> Optional[Tuple[int, int]]:
    """The lowest and highest z-exponent with a nonzero entry among numerators
    a laid out with width w from z^lo, or None when all are zero: one C-level
    scan per column, from both ends."""
    first = next((j for j in range(w) if any(a[j::w])), None)
    if first is None:
        return None
    last = next(j for j in range(w - 1, first - 1, -1) if any(a[j::w]))
    return lo + first, lo + last


def _laid_out(a: Sequence[int], w: int, old: int, lo: int, hi: int, order: int) -> List[int]:
    """Numerators a, laid out with width w from z^old, re-laid over columns
    z^lo..z^hi for rows 0..order; entries outside those columns are dropped
    and new columns are zero."""
    if lo == old and hi == old + w - 1:
        return list(a[: (order + 1) * w])
    first, last = max(lo, old), min(hi, old + w - 1)  # the range overlaps the layout
    left, right = [0] * (first - lo), [0] * (hi - last)
    out: List[int] = []
    for i in range(first - old, (order + 1) * w, w):
        out += left
        out += a[i : i + last - first + 1]
        out += right
    return out


class LaurentZQSeries:
    """Truncated series sum_{n<=T} sum_k a_{n,k} z^k q^n on a flat layout."""

    __slots__ = ("_flat", "_lo", "_width", "_order")

    def __init__(self, columns: Mapping[int, QSeries], order: int):
        """The series sum_k columns[k] z^k, each column of order >= order."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        cols: Dict[int, QSeries] = {}
        for k, col in columns.items():
            if col.order < order:
                raise ValueError(f"column z^{k} has order {col.order} < {order}")
            col = col.truncate(order)
            if not col.is_zero():
                cols[k] = col
        lo = min(cols, default=0)
        width = max(cols, default=0) - lo + 1
        den = lcm(*(col._den for col in cols.values()))
        nums = [0] * ((order + 1) * width)
        for k, col in cols.items():
            m = den // col._den
            nums[k - lo :: width] = [m * x for x in col._nums]
        self._flat, self._lo, self._width, self._order = _reduced(nums, den), lo, width, order

    @classmethod
    def zero(cls, order: int) -> "LaurentZQSeries":
        return cls({}, order)

    @classmethod
    def sum_of(cls, terms: Iterable["LaurentZQSeries"], order: int) -> "LaurentZQSeries":
        return sum(terms, cls.zero(order))

    @classmethod
    def from_q_series(cls, s: QSeries) -> "LaurentZQSeries":
        return _make(s, 0, 1, s.order)

    @property
    def order(self) -> int:
        return self._order

    def row(self, n: int) -> Dict[int, Fraction]:
        """The nonzero coefficients of q^n, as {z-exponent: rational}."""
        if not 0 <= n <= self._order:
            raise IndexError(f"q^{n} outside truncation order {self._order}")
        w, den = self._width, self._flat._den
        cells = self._flat._nums[n * w : (n + 1) * w]
        return {self._lo + j: Fraction(x, den) for j, x in enumerate(cells) if x}

    def is_zero(self) -> bool:
        return self._flat.is_zero()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentZQSeries") -> "LaurentZQSeries":
        """The sum on the union of the two layouts, at the lower order: other's
        rows are added in place into self's re-laid numerators, over their
        common denominator, so other is not re-laid."""
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        order = min(self._order, other._order)
        lo = min(self._lo, other._lo)
        width = max(self._lo + self._width, other._lo + other._width) - lo
        d1, d2 = self._flat._den, other._flat._den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        a = _laid_out(self._flat._nums, self._width, self._lo, lo, lo + width - 1, order)
        if m1 != 1:
            a = [m1 * x for x in a]
        b, w = other._flat._nums, other._width
        for i, n in zip(range(other._lo - lo, len(a), width), range(0, len(b), w)):
            row = b[n : n + w]
            a[i : i + w] = map(add, a[i : i + w], row if m2 == 1 else map(m2.__mul__, row))
        return _make(_reduced(a, d1 * m1), lo, width, order)

    def apply_ratio(
        self,
        scalar: Scalar = 1,
        shift: int = 0,
        up: Sequence[Tuple[Scalar, int]] = (),
        down: Sequence[Tuple[Scalar, int]] = (),
    ) -> "LaurentZQSeries":
        """self * scalar * q^shift * prod_up (1 - c q^e) / prod_down (1 - c q^e),
        a z-free ratio, as one QSeries.apply_ratio call on the flat series
        with q^W in place of q; the zero series still checks the factors."""
        w = self._width
        flat = self._flat.apply_ratio(
            scalar, shift * w, [(c, e * w) for c, e in up], [(c, e * w) for c, e in down])
        return _make(flat, self._lo, w, self._order)

    def div_binomial(self, coeff: Scalar, zexp: int, qexp: int) -> "LaurentZQSeries":
        """self / (1 - coeff * z^zexp * q^qexp); see the module docstring for
        the layout it runs on, why nothing aliases, and the floor division."""
        if qexp < 0:
            raise ValueError("q-exponent must be non-negative")
        if qexp == 0 and zexp != 0:
            raise ValueError("z powers must ride on at least one power of q")
        if qexp == 0 and coeff == 1:
            raise ZeroConstantTermError("division by (1 - c) with c = 1")
        if zexp == 0:
            return self.apply_ratio(down=((coeff, qexp),))
        span = _span(self._flat._nums, self._width, self._lo)
        if span is None:
            return self
        order, steps = self._order, self._order // qexp
        pad = abs(zexp) * (steps + 1)
        lo, hi = (span[0], span[1] + pad) if zexp > 0 else (span[0] - pad, span[1])
        a = _laid_out(self._flat._nums, self._width, self._lo, lo, hi, order)
        w = hi - lo + 1
        jump = qexp * w + zexp
        p, q = coeff.numerator, coeff.denominator
        den = self._flat._den
        if q != 1:
            qk = q**steps
            a = [qk * x for x in a]
            den *= qk
        for b in range(jump, len(a), jump):
            prev = a[b - jump : b]
            if q != 1:
                prev = map(p.__mul__, map(q.__rfloordiv__, prev))
            elif p != 1:
                prev = map(p.__mul__, prev)
            a[b : b + jump] = map(add, a[b : b + jump], prev)
        # the quotient rarely fills the padding: keep only its occupied
        # columns, moving each row down in place
        klo, khi = _span(a, w, lo)
        k = khi - klo + 1
        if k < w:
            for n, i in enumerate(range(klo - lo, len(a), w)):
                a[n * k : (n + 1) * k] = a[i : i + k]
            del a[(order + 1) * k :]
        return _make(_reduced(a, den), klo, k, order)

    # -- extraction transforms ------------------------------------------

    def z_derivative(self) -> "LaurentZQSeries":
        """Apply z * d/dz: the z^k column picks up a factor k."""
        lo, w = self._lo, self._width
        nums = tuple(map(mul, self._flat._nums, cycle(range(lo, lo + w))))
        return _make(_reduced(nums, self._flat._den), lo, w, self._order)

    def positive_z_part(self) -> "LaurentZQSeries":
        lo, hi = max(self._lo, 1), self._lo + self._width - 1
        if hi < lo:
            return LaurentZQSeries.zero(self._order)
        a, w = self._flat._nums, self._width
        rows = (a[i : i + hi - lo + 1] for i in range(lo - self._lo, len(a), w))
        nums = tuple(chain.from_iterable(rows))  # no list to copy into a tuple
        return _make(_reduced(nums, self._flat._den), lo, hi - lo + 1, self._order)

    def set_z_one(self) -> QSeries:
        a, w = self._flat._nums, self._width
        return _reduced([sum(a[i : i + w]) for i in range(0, len(a), w)], self._flat._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return all(self.row(n) == other.row(n) for n in range(order + 1))

    __hash__ = None

    def __repr__(self) -> str:
        a, w = self._flat._nums, self._width
        columns = sum(1 for j in range(w) if any(a[j::w]))
        return f"LaurentZQSeries(order={self._order}, nonzero z-columns={columns})"
