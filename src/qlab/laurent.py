"""Series in q whose coefficients are Laurent polynomials in z.

Used for the bivariate finite rank and crank generating functions: every
z or 1/z in those functions rides on at least one power of q, so the
coefficient of z^k q^n vanishes whenever |k| > n and each q-row stays a
finite Laurent polynomial.

Rows are stored as {z-exponent: rational} maps indexed by q-exponent
0..T.  Values are treated as immutable; operations return new objects.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Union

from .rational import ONE, ZERO, Rat, rat
from .series import QSeries, ZeroConstantTermError

Row = Dict[int, Rat]
Scalar = Union[int, Rat]


def _clean(row: Mapping[int, Rat]) -> Row:
    return {k: v for k, v in row.items() if v != 0}


def _row_mul(a: Mapping[int, Rat], b: Mapping[int, Rat]) -> Row:
    out: Row = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            cur = out.get(k)
            out[k] = va * vb if cur is None else cur + va * vb
    return _clean(out)


class LaurentZQSeries:
    """Truncated series sum_{n=0}^{T} (sum_k c_{n,k} z^k) q^n."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Mapping[int, Rat]]):
        if not rows:
            raise ValueError("a series needs at least the q^0 row")
        self._rows = tuple(_clean(r) for r in rows)

    @classmethod
    def zero(cls, order: int) -> "LaurentZQSeries":
        return cls([{} for _ in range(order + 1)])

    @classmethod
    def one(cls, order: int) -> "LaurentZQSeries":
        rows: list = [{} for _ in range(order + 1)]
        rows[0] = {0: ONE}
        return cls(rows)

    @classmethod
    def from_q_series(cls, s: QSeries) -> "LaurentZQSeries":
        return cls([{0: c} if c != 0 else {} for c in s.coeffs])

    @property
    def order(self) -> int:
        return len(self._rows) - 1

    def coefficient(self, n: int, zexp: int) -> Rat:
        if not 0 <= n <= self.order:
            raise IndexError(f"q^{n} outside truncation order {self.order}")
        return self._rows[n].get(zexp, ZERO)

    def row(self, n: int) -> Row:
        return dict(self._rows[n])

    def z_span(self, n: int) -> int:
        """Largest |z-exponent| with a nonzero coefficient at q^n (0 if none)."""
        r = self._rows[n]
        return max((abs(k) for k in r), default=0)

    def _common(self, other: "LaurentZQSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "LaurentZQSeries") -> "LaurentZQSeries":
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        t = self._common(other)
        rows = []
        for n in range(t + 1):
            row = dict(self._rows[n])
            for k, v in other._rows[n].items():
                row[k] = row.get(k, ZERO) + v
            rows.append(row)
        return LaurentZQSeries(rows)

    def __sub__(self, other: "LaurentZQSeries") -> "LaurentZQSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentZQSeries":
        return LaurentZQSeries([{k: -v for k, v in r.items()} for r in self._rows])

    def scale(self, value: Scalar) -> "LaurentZQSeries":
        return LaurentZQSeries(
            [{k: v * value for k, v in r.items()} for r in self._rows]
        )

    def __mul__(self, other: Union["LaurentZQSeries", Scalar]) -> "LaurentZQSeries":
        if not isinstance(other, LaurentZQSeries):
            return self.scale(other)
        t = self._common(other)
        rows: list = [{} for _ in range(t + 1)]
        for i in range(t + 1):
            ri = self._rows[i]
            if not ri:
                continue
            for j in range(t + 1 - i):
                rj = other._rows[j]
                if not rj:
                    continue
                target = rows[i + j]
                for k, v in _row_mul(ri, rj).items():
                    target[k] = target.get(k, ZERO) + v
        return LaurentZQSeries(rows)

    def __rmul__(self, other: Scalar) -> "LaurentZQSeries":
        return self.scale(other)

    def inverse(self) -> "LaurentZQSeries":
        head = self._rows[0]
        if set(head) - {0} or head.get(0, ZERO) == 0:
            raise ZeroConstantTermError(
                "inverse needs a z-free nonzero constant term at q^0"
            )
        t = self.order
        inv0 = ONE / head[0]
        rows: list = [{} for _ in range(t + 1)]
        rows[0] = {0: inv0}
        for n in range(1, t + 1):
            acc: Row = {}
            for j in range(1, n + 1):
                rj = self._rows[j]
                if not rj:
                    continue
                for k, v in _row_mul(rj, rows[n - j]).items():
                    acc[k] = acc.get(k, ZERO) + v
            rows[n] = {k: -inv0 * v for k, v in acc.items() if v != 0}
        return LaurentZQSeries(rows)

    def mul_binomial(self, coeff: Scalar, zexp: int, qexp: int) -> "LaurentZQSeries":
        """self * (1 - coeff * z^zexp * q^qexp) in O(T * width)."""
        if qexp < 0:
            raise ValueError("q-exponent must be non-negative")
        if qexp == 0 and zexp != 0:
            raise ValueError("z powers must ride on at least one power of q")
        t = self.order
        rows = [dict(r) for r in self._rows]
        if qexp == 0:
            return self.scale(ONE - rat(1) * coeff)
        for n in range(t, qexp - 1, -1):
            for k, v in self._rows[n - qexp].items():
                kk = k + zexp
                rows[n][kk] = rows[n].get(kk, ZERO) - coeff * v
        return LaurentZQSeries(rows)

    def div_binomial(self, coeff: Scalar, zexp: int, qexp: int) -> "LaurentZQSeries":
        """self / (1 - coeff * z^zexp * q^qexp) in O(T * width)."""
        if qexp < 0:
            raise ValueError("q-exponent must be non-negative")
        if qexp == 0 and zexp != 0:
            raise ValueError("z powers must ride on at least one power of q")
        if qexp == 0:
            factor = ONE - rat(1) * coeff
            if factor == 0:
                raise ZeroConstantTermError("division by (1 - c) with c = 1")
            return self.scale(ONE / factor)
        t = self.order
        rows = [dict(r) for r in self._rows]
        for n in range(qexp, t + 1):
            for k, v in rows[n - qexp].items():
                kk = k + zexp
                rows[n][kk] = rows[n].get(kk, ZERO) + coeff * v
        return LaurentZQSeries(rows)

    # -- extraction transforms ------------------------------------------

    def z_derivative(self) -> "LaurentZQSeries":
        """Apply z * d/dz: the z^k coefficient picks up a factor k."""
        return LaurentZQSeries(
            [{k: k * v for k, v in r.items() if k != 0} for r in self._rows]
        )

    def positive_z_part(self) -> "LaurentZQSeries":
        return LaurentZQSeries(
            [{k: v for k, v in r.items() if k > 0} for r in self._rows]
        )

    def set_z_one(self) -> QSeries:
        return QSeries([sum(r.values(), ZERO) for r in self._rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentZQSeries):
            return NotImplemented
        t = self._common(other)
        return all(self._rows[n] == other._rows[n] for n in range(t + 1))

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def __repr__(self) -> str:
        nonzero = sum(1 for r in self._rows if r)
        return f"LaurentZQSeries(order={self.order}, nonzero q-rows={nonzero})"

