"""Series in q whose coefficients are Laurent polynomials in z.

Used for the bivariate finite rank and crank generating functions: every
z or 1/z in those functions rides on at least one power of q, so the
coefficient of z^k q^n vanishes whenever |k| > n and each q-row stays a
finite Laurent polynomial.

A series is stored by z-columns: ``{k: C_k}``, where the QSeries C_k(q)
of truncation order T is the coefficient of z^k.  Only nonzero columns
are kept, and by the bound above C_k starts at q^{|k|}, so at most
2T + 1 columns exist.  A z-free ratio, a scalar, a power of q and
factors (1 - c q^e), is one QSeries.apply_ratio call per column; a factor
with z moves terms between columns and goes through div_binomial's
column walk.  Values are immutable.

Division by (1 - c z^s q^e) solves the column recurrence
B_k = A_k + c q^e B_{k-s}, walking k upward for s > 0 and downward for
s < 0.  Past the last input key A_k = 0, so each further column is an
earlier one times c q^e; once |s| consecutive columns there are zero,
every later one is too, and the walk ends.  It does end, because each
carried column moves up by e >= 1 and vanishes to order T after at most
T/e steps.  Zero columns between input keys do not end it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .rational import Rat
from .series import QSeries, ZeroConstantTermError

Scalar = Union[int, Rat]


class LaurentZQSeries:
    """Truncated series sum_k C_k(q) z^k, each column C_k of order T."""

    __slots__ = ("_cols", "_order")

    def __init__(self, columns: Mapping[int, QSeries], order: int):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        cols: Dict[int, QSeries] = {}
        for k, col in columns.items():
            if col.order < order:
                raise ValueError(f"column z^{k} has order {col.order} < {order}")
            col = col.truncate(order)
            if not col.is_zero():
                cols[k] = col
        self._cols = cols
        self._order = order

    @classmethod
    def zero(cls, order: int) -> "LaurentZQSeries":
        return cls({}, order)

    @classmethod
    def sum_of(cls, terms: Iterable["LaurentZQSeries"], order: int) -> "LaurentZQSeries":
        return sum(terms, cls.zero(order))

    @classmethod
    def from_q_series(cls, s: QSeries) -> "LaurentZQSeries":
        return cls({0: s}, s.order)

    @property
    def order(self) -> int:
        return self._order

    def row(self, n: int) -> Dict[int, Rat]:
        """The nonzero coefficients of q^n, as {z-exponent: rational}."""
        if not 0 <= n <= self._order:
            raise IndexError(f"q^{n} outside truncation order {self._order}")
        return {k: col[n] for k, col in self._cols.items() if col[n] != 0}

    def is_zero(self) -> bool:
        return not self._cols

    def __add__(self, other: "LaurentZQSeries") -> "LaurentZQSeries":
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        cols = dict(self._cols)
        for k, col in other._cols.items():
            cols[k] = cols[k] + col if k in cols else col
        return LaurentZQSeries(cols, min(self._order, other._order))

    def apply_ratio(
        self,
        scalar: Scalar = 1,
        shift: int = 0,
        up: Sequence[Tuple[Scalar, int]] = (),
        down: Sequence[Tuple[Scalar, int]] = (),
    ) -> "LaurentZQSeries":
        """self * scalar * q^shift * prod_up (1 - c q^e) / prod_down (1 - c q^e),
        a z-free ratio, by QSeries.apply_ratio on each column; the zero
        series runs it on one zero column, so its factors are checked too."""
        cols = self._cols or {0: QSeries.zero(self._order)}
        ratio = {k: col.apply_ratio(scalar, shift, up, down) for k, col in cols.items()}
        return LaurentZQSeries(ratio, self._order)

    def div_binomial(self, coeff: Scalar, zexp: int, qexp: int) -> "LaurentZQSeries":
        """self / (1 - coeff * z^zexp * q^qexp); see the module docstring
        for the column walk and why it ends."""
        if qexp < 0:
            raise ValueError("q-exponent must be non-negative")
        if qexp == 0 and zexp != 0:
            raise ValueError("z powers must ride on at least one power of q")
        if qexp == 0 and coeff == 1:
            raise ZeroConstantTermError("division by (1 - c) with c = 1")
        if zexp == 0:
            return self.apply_ratio(down=((coeff, qexp),))
        if not self._cols:
            return self
        step = 1 if zexp > 0 else -1
        keys = sorted(self._cols, reverse=zexp < 0)
        last, out = keys[-1], {}
        k = keys[0]
        while (k - last) * step <= 0 or any(k - j * step in out for j in range(1, abs(zexp) + 1)):
            col = self._cols.get(k)
            carried = out.get(k - zexp)
            if carried is not None:
                carried = carried.apply_ratio(coeff, qexp)
                col = carried if col is None else col + carried
            if col is not None and not col.is_zero():
                out[k] = col
            k += step
        return LaurentZQSeries(out, self._order)

    # -- extraction transforms ------------------------------------------

    def z_derivative(self) -> "LaurentZQSeries":
        """Apply z * d/dz: the z^k column picks up a factor k."""
        return LaurentZQSeries({k: col.scale(k) for k, col in self._cols.items()}, self._order)

    def positive_z_part(self) -> "LaurentZQSeries":
        return LaurentZQSeries({k: c for k, c in self._cols.items() if k > 0}, self._order)

    def set_z_one(self) -> QSeries:
        return QSeries.sum_of(self._cols.values(), self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        zero = QSeries.zero(min(self._order, other._order))
        keys = self._cols.keys() | other._cols.keys()
        return all(self._cols.get(k, zero) == other._cols.get(k, zero) for k in keys)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LaurentZQSeries(order={self._order}, nonzero z-columns={len(self._cols)})"
