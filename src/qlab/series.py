"""Exact truncated formal power series in q.

A QSeries holds the coefficients of q^0 .. q^T for a fixed truncation
order T; all arithmetic is exact over arbitrary-precision rationals.
Binary operations on series of different truncation orders first
truncate to the shorter one, and equality means coefficient-wise
equality up to the common order.

Storage is fraction-free: a tuple of Python int numerators ``_nums``
over one positive int denominator ``_den``, so the coefficient of q^n is
``_nums[n] / _den``.  Every series is kept reduced,
``gcd(_den, *_nums) == 1``, which makes the representation of a value
unique.  Each kernel works on plain ints over a common denominator (the
fraction-free technique of Bareiss elimination) and reduces once at the
end with a single C-level ``math.gcd`` call, instead of normalising a
rational per coefficient operation.  Fractions appear only at the
boundary: the constructor takes them, and ``coeffs``, indexing and
``constant_term`` return them.

One kernel, ``apply_ratio``, multiplies a series by a term ratio: a
scalar, a power of q, and Pochhammer factors (1 - c*q^e) above and below.
After the shift q^v divides the series, so each factor acts in O(T') on
the tail a = _nums[v:] of order T' = T - v (one with e > T' is 1 there),
and the kernel reduces once at the end.  For c = p/q, a factor above gives
``q*a[n] - p*a[n-e]`` over ``_den*q``.  A factor below solves
b = a + (p/q) q^e b with K = T' // e as ``b[n] = q^K*a[n] + p*(b[n-e] // q)``
over ``_den*q^K``.  The floor division there is exact for any int
numerators a, reduced or not: unrolled,
``b[m] = sum_{k <= m//e} p^k q^(K-k) a[m-ke]``, so ``b[m]`` is divisible
by ``q^(K - m//e)``, and for m = n-e that exponent is at least 1 because
(n-e)//e < K.

These scale the numerators by q per factor above and by q^(T'//e) per
factor below.  The substitution q = L*x, with L the lcm of the factors'
denominators, scales them by L^T' instead: the factors run the q = 1 loops
on a[m]*L^m, as (p/q) q^e = p*(L/q)*L^(e-1) x^e and L/q and L^(e-1) are
integers for e >= 1, and the result is b[m]*L^(T'-m) over _den*L^T'.  The
kernel substitutes only when the q-powers' product exceeds L^T', as for a
run of divisions with one q: always substituting made building the
deep-T80 sides 1.6 times slower.

Every pass over the tail builds a list of big ints, so none is spent on
work a factor pass can carry.  The scalar's numerator and the constants
of the e = 0 factors form one int multiplier, taken on by the first pass
that rewrites the tail: the first factor above, or the q^K scaling of a
first fractional factor below.  Only a ratio without factors, or one
whose first factor is an integer division, scales in a pass of its own.
A division by 1 - q^e runs ``a[n] += a[n-e]``, with no multiply by 1.

Factors with 2e > T' act together.  Any two of them multiply to 1 to
order T', as their product's q-power exceeds T', and 1/(1 - c q^e) =
1 + c q^e there; so together they are one linear map,
b = a - sum_i s_i c_i q^(e_i) a with s_i = 1 above and -1 below, in which
every term reads the input tail a.  With three or more of them the
kernel scales the tail once by the lcm L of their denominators, a pass
that takes the pending multiplier k, and then subtracts
k s_i p_i (L/q_i) a[n - e_i] in one C-level pass per factor.  A run of
one c over consecutive e = lo..hi, the upper half of every Pochhammer
symbol longer than T'/2, is one pass over the window sums
S[n-lo] - S[n-hi-1] of S = accumulate(a).  Every step is an exact
integer operation over _den*L, so the reduced result is the series the
factors give one by one.  One or two such factors run as factors above
(a division with -c), where the extra scaling pass would cost more than
it saves.

Multiplication and division by one factor, a quotient of q-Pochhammer
symbols applied to a series (poch_ratio, whose one-symbol cases are poch
and div_poch) and each index S <- 1 + ratio * S of term_sum, the one
summation primitive, are single calls of this kernel.
Values are immutable and safe to share between workers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union



class ZeroConstantTermError(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


class PoleInTermRangeError(ZeroDivisionError):
    """A hypergeometric denominator factor vanishes inside the summed range."""


class QMonomial(NamedTuple):
    """coefficient * q^exponent, the argument form of Pochhammer factors."""

    coeff: Fraction
    exp: int


Scalar = Union[int, Fraction]

# apply_ratio runs its factors with 2e > T' as one pass when there are this many
_FAR_PASS_MIN = 3


def _ratio(x: Scalar) -> Tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise _inexact(x) from None


def _inexact(x) -> TypeError:
    return TypeError(f"an exact int or Fraction is needed, not {type(x).__name__} {x!r}")


def _reduced(nums: Sequence[int], den: int) -> "QSeries":
    """The series nums/den in lowest terms; den must be positive."""
    if den == 1:  # already in lowest terms, and gcd would still scan every numerator
        return _raw(tuple(nums), 1)
    # High orders share the fewest factors with den (the low ones of a
    # div_binomial result carry high powers of q), and once the running gcd is 1
    # math.gcd only scans the rest, so start from the top.
    g = gcd(den, *reversed(nums))
    if g != 1:
        return _raw(tuple(map(floordiv, nums, repeat(g))), den // g)
    return _raw(tuple(nums), den)


def _raw(nums: Tuple[int, ...], den: int) -> "QSeries":
    """A series from numerators already reduced against den."""
    s = object.__new__(QSeries)
    s._nums = nums
    s._den = den
    return s


def _first_difference(x: "QSeries", y: "QSeries") -> Optional[int]:
    """Lowest common order where x and y differ, comparing a*dy with b*dx."""
    g = gcd(x._den, y._den)
    mx, my = y._den // g, x._den // g
    for n, (a, b) in enumerate(zip(x._nums, y._nums)):
        if a * mx != b * my:
            return n
    return None


class QSeries:
    """Truncated power series sum_{n=0}^{T} coeffs[n] * q^n."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Fraction]):
        pairs = [_ratio(c) for c in coeffs]
        if not pairs:
            raise ValueError("a series needs at least the q^0 coefficient")
        # Over the lcm of lowest-terms denominators the numerators share no
        # factor with it, so the result is already reduced.
        den = lcm(*(d for _, d in pairs))
        self._nums = tuple(n * (den // d) for n, d in pairs)
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return _raw((0,) * (order + 1), 1)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, coeff: Scalar, exp: int, order: int) -> "QSeries":
        if exp < 0:
            raise ValueError("q-exponent must be non-negative")
        if exp > order:
            return cls.zero(order)
        nums = [0] * (order + 1)
        nums[exp], den = _ratio(coeff)
        return _raw(tuple(nums), den)

    # -- basic accessors ----------------------------------------------

    @property
    def order(self) -> int:
        """Highest q-exponent carried exactly (the truncation order T)."""
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} outside truncation order {self.order}")
        return Fraction(self._nums[n], self._den)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums[0], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def truncate(self, order: int) -> "QSeries":
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        if order >= self.order:
            return self
        return _reduced(self._nums[: order + 1], self._den)

    @classmethod
    def sum_of(cls, terms: Iterable["QSeries"], order: int) -> "QSeries":
        """The terms' sum (zero(order) for none), truncated like + to the lowest
        order: added over the running lcm of their denominators, reduced once."""
        total, den = [0] * (order + 1), 1
        for s in terms:
            m = s._den // gcd(den, s._den)
            den *= m
            k = den // s._den
            nums = s._nums  # m * total + k * nums in one pass, without multiplying by 1
            if m == 1 and k == 1:
                total = list(map(add, total, nums))
            elif k == 1:
                total = [m * x + y for x, y in zip(total, nums)]
            elif m == 1:
                total = [x + k * y for x, y in zip(total, nums)]
            else:
                total = [m * x + k * y for x, y in zip(total, nums)]
        return _reduced(total, den)

    # -- ring operations ----------------------------------------------

    def _over_common(self, other: "QSeries"):
        """Both numerator sequences over the lcm of the denominators, and
        that lcm; map in the callers truncates to the common order."""
        a, da, b, db = self._nums, self._den, other._nums, other._den
        if da == db:
            return a, b, da
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return [ma * x for x in a], [mb * x for x in b], da * ma

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._over_common(other)
        return _reduced(list(map(add, a, b)), den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._over_common(other)
        return _reduced(list(map(sub, a, b)), den)

    def __neg__(self) -> "QSeries":
        return _raw(tuple(-n for n in self._nums), self._den)

    def __mul__(self, other: Union["QSeries", Scalar]) -> "QSeries":
        if isinstance(other, QSeries):
            size = min(len(self._nums), len(other._nums))
            b = other._nums[:size]
            out = [0] * size
            for i, ai in enumerate(self._nums[:size]):
                if ai:
                    out[i:] = map(add, out[i:], map(ai.__mul__, b[: size - i]))
            return _reduced(out, self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "QSeries":
        return self.scale(other)

    def scale(self, value: Scalar) -> "QSeries":
        """self * p/q for value = p/q; cross-cancelling first keeps the
        result reduced without a gcd over the products."""
        p, q = _ratio(value)
        if p == 0:
            return QSeries.zero(self.order)
        g1, g2 = gcd(p, self._den), gcd(q, *self._nums)
        p //= g1
        nums = self._nums if g2 == 1 else [n // g2 for n in self._nums]
        return _raw(tuple([p * n for n in nums]), (self._den // g1) * (q // g2))

    def shift(self, exp: int) -> "QSeries":
        """Multiply by q^exp, keeping the truncation order."""
        if exp < 0:
            raise ValueError("q-exponent must be non-negative")
        size = len(self._nums)
        if exp >= size:
            return QSeries.zero(self.order)
        return _reduced((0,) * exp + self._nums[: size - exp], self._den)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse: self * self.inverse() == 1 up to T.

        With a = self._nums and a0 = a[0], c[n] = a0^(n+1) [q^n](1/sum a[j] q^j)
        is an integer: c[0] = 1 and c[n] = -sum_{j=1}^{n} a[j] a0^(j-1) c[n-j].
        The inverse is then _den * c[n] * a0^(T-n) over a0^(T+1).
        """
        a = self._nums
        a0 = a[0]
        if a0 == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        t = len(a) - 1
        powers = [1]
        for _ in range(t + 1):
            powers.append(powers[-1] * a0)
        weights = list(map(mul, a[1:], powers))  # a[j] a0^(j-1), j = 1..T
        c = [1]
        for n in range(1, t + 1):
            c.append(-sum(map(mul, weights[:n], reversed(c))))
        den = powers[t + 1]
        scale = self._den if den > 0 else -self._den
        nums = [scale * cn * pw for cn, pw in zip(c, reversed(powers[: t + 1]))]
        return _reduced(nums, abs(den))

    # -- the term-ratio kernel ------------------------------------------

    def apply_ratio(
        self,
        scalar: Scalar = 1,
        shift: int = 0,
        up: Iterable[Tuple[Scalar, int]] = (),
        down: Iterable[Tuple[Scalar, int]] = (),
        constant: Scalar = 0,
        order: Optional[int] = None,
    ) -> "QSeries":
        """constant + self * scalar * q^shift * prod_up (1 - c q^e) / prod_down (1 - c q^e)
        to `order` (self's by default; self zero-extended to it) in O(T) per
        factor, reduced once; see the module docstring for the tail, the
        recurrences, why their floor division is exact, and when the factors
        run over x = q/L.  A factor with e > T is 1 to order T."""
        if shift < 0:
            raise ValueError("q-exponent must be non-negative")
        size = len(self._nums) if order is None else order + 1
        # k, the scalar's numerator times the e = 0 factors' constants, waits
        # for the first pass that rewrites the tail
        try:  # the attribute reads of _ratio, inline: apply_ratio is the hot path
            k, den = scalar.numerator, scalar.denominator * self._den
        except AttributeError:
            raise _inexact(scalar) from None
        if constant:  # over den * c_den the constant's numerator is an integer at the end
            c_num, c_den = _ratio(constant)
            k, den = k * c_den, den * c_den
        head = self._nums[: max(size - shift, 0)] if k else ()
        if up or down:  # the factors act on the tail after the leading zeros
            head = head[next(compress(count(), head), len(head)) :]
        a = list(head)
        if order is not None:  # zero-extended to it
            a += [0] * (size - shift - len(self._nums))
        top = len(a) - 1  # the tail's order
        ups, downs, far, big, growth = [], [], [], 1, 1  # factors (p, q, e), lcm of q, q-powers
        for c, e in up:
            if e < 0:
                raise ValueError("q-exponent must be non-negative")
            try:
                p, q = c.numerator, c.denominator
            except AttributeError:
                raise _inexact(c) from None
            if e == 0 and p:
                k *= q - p
                den *= q
            elif p and e <= top:
                if 2 * e > top:  # any two such factors multiply to 1 to order top
                    far.append((p, q, e))
                else:
                    ups.append((p, q, e))
                    big, growth = lcm(big, q), growth * q
        for c, e in down:
            if e < 0:
                raise ValueError("q-exponent must be non-negative")
            try:
                p, q = c.numerator, c.denominator
            except AttributeError:
                raise _inexact(c) from None
            if e == 0:
                if p == q:
                    raise ZeroConstantTermError("division by (1 - c) with c = 1")
                if p:
                    k *= q if q > p else -q
                    den *= abs(q - p)
            elif p and e <= top:
                if 2 * e > top:  # 1/(1 - c q^e) = 1 + c q^e to order top: a factor above
                    far.append((-p, q, e))
                else:
                    downs.append((p, q, e))
                    big, growth = lcm(big, q), growth * q ** (top // e)
        if len(far) < _FAR_PASS_MIN:  # too few to share a pass: each takes its own
            for f in far:
                ups.append(f)
                big, growth = lcm(big, f[1]), growth * f[1]
        else:  # one scaling by their lcm, taking k, and one C-level pass per run of factors
            scale = 1
            for _, q, _ in far:  # a loop: lcm(*...) leaves its argument tuple on the free list
                scale = lcm(scale, q)
            den *= scale
            # the passes read a[:top - lo + 1], below every far exponent, so when
            # nothing scales they may write into a itself
            ks = k * scale
            b = [ks * x for x in a] if ks != 1 else a
            i = 0
            while i < len(far):
                p, q, lo = far[i]
                hi, i = lo, i + 1
                while i < len(far) and far[i] == (p, q, hi + 1):  # (1 - c q^lo)..(1 - c q^hi)
                    hi, i = hi + 1, i + 1
                m, width = k * p * (scale // q), hi - lo + 1
                src = a
                if width > 1:  # sum_{e=lo}^{hi} a[n-e] = S[n-lo] - S[n-hi-1] with S = accumulate(a)
                    src = map(sub, accumulate(src), chain(repeat(0, width), accumulate(src)))
                if m == 1 or m == -1:
                    b[lo:] = map(sub if m == 1 else add, b[lo:], src)
                else:
                    b[lo:] = map(sub, b[lo:], map(mul, src, repeat(m)))
            a, k = b, 1
        substitute = growth > big**top
        if substitute:  # q = big * x makes every factor's coefficient an integer
            powers = list(accumulate(repeat(big, top), mul, initial=1))
            a = list(map(mul, a, powers))
            ups, downs = ([(p * (big // q) * powers[e - 1], 1, e) for p, q, e in fs]
                          for fs in (ups, downs))
        for p, q, e in ups:  # the first one takes the pending multiplier k
            den *= q
            p, q, k = p * k, q * k, 1
            if q != 1:
                a = [q * x for x in a[:e]] + [q * x - p * y for x, y in zip(a[e:], a)]
            elif p == 1 or p == -1:
                a = a[:e] + list(map(sub if p == 1 else add, a[e:], a))
            else:
                a = a[:e] + [x - p * y for x, y in zip(a[e:], a)]
        for p, q, e in downs:
            if q == 1:
                if k != 1:
                    a, k = [k * x for x in a], 1
                if p == 1:
                    for n in range(e, top + 1):
                        a[n] += a[n - e]
                else:
                    for n in range(e, top + 1):
                        a[n] += p * a[n - e]
            else:
                qk = q ** (top // e)
                den *= qk
                qk *= k
                a, k = [qk * x for x in a], 1
                for n in range(e, top + 1):
                    a[n] += p * (a[n - e] // q)
        if k != 1:
            a = [k * x for x in a]
        if substitute:
            a = list(map(mul, a, reversed(powers)))
            den *= powers[-1]
        a = [0] * (size - len(a)) + a
        if constant:
            a[0] += c_num * (den // c_den)
        return _reduced(a, den)

    def mul_binomial(self, coeff: Scalar, exp: int) -> "QSeries":
        """self * (1 - coeff*q^exp)."""
        return self.apply_ratio(up=((coeff, exp),))

    def div_binomial(self, coeff: Scalar, exp: int) -> "QSeries":
        """self / (1 - coeff*q^exp)."""
        return self.apply_ratio(down=((coeff, exp),))

    # -- comparison & display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return _first_difference(self, other) is None

    __hash__ = None  # equality is up-to-common-order, not hashable

    def first_difference(self, other: "QSeries") -> Optional[int]:
        """Lowest order where the two series disagree, or None."""
        return _first_difference(self, other)

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"({c})*q")
            else:
                terms.append(f"({c})*q^{n}")
            if len(terms) >= 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O(q^{self.order + 1}))"


# -- q-Pochhammer symbols -------------------------------------------------


Symbol = Tuple[Scalar, int, Optional[int]]  # (c, e, n) for (c*q^e; q)_n


def poch_ratio(s: QSeries, up: Iterable[Symbol] = (), down: Iterable[Symbol] = ()) -> QSeries:
    """s * prod_up (c*q^e; q)_n / prod_down (c*q^e; q)_n for symbols (c, e, n).

    (c*q^e; q)_n = prod_{k=0}^{n-1} (1 - c*q^{e+k}), and n = None means the
    infinite product; factors with e+k > order are identically
    1 + O(q^{order+1}) and are skipped either way.  The whole quotient is
    one apply_ratio call over the factors of every symbol.
    """
    order = s.order
    return s.apply_ratio(
        up=[f for c, e, n in up for f in _poch_factors(c, e, n, order)],
        down=[f for c, e, n in down for f in _poch_factors(c, e, n, order)],
    )


def poch(coeff: Scalar, exp: int, n: Optional[int], order: int) -> QSeries:
    """(c*q^e; q)_n truncated at `order`, the poch_ratio of 1 by one symbol."""
    return poch_ratio(QSeries.one(order), up=((coeff, exp, n),))


def div_poch(s: QSeries, coeff: Scalar, exp: int, n: Optional[int]) -> QSeries:
    """s / (c*q^e; q)_n, the poch_ratio of s by one symbol below."""
    return poch_ratio(s, down=((coeff, exp, n),))


def _poch_factors(coeff: Scalar, exp: int, n: Optional[int], order: int) -> list:
    """The factors (c, e + k) of (c*q^e; q)_n that are not 1 to `order`."""
    if exp < 0:
        raise ValueError("q-exponent must be non-negative")
    if n is not None and n < 0:
        raise ValueError("Pochhammer length must be non-negative")
    top = order + 1 if n is None else min(exp + n, order + 1)
    return [(coeff, e) for e in range(exp, top)]


# -- Gaussian binomials ---------------------------------------------------

_QBIN_CACHE: dict = {}


def _qbin_poly(N: int, n: int) -> tuple:
    """Integer coefficient tuple of the Gaussian binomial [N, n]."""
    if n < 0 or n > N:
        return (0,)
    if n == 0 or n == N:
        return (1,)
    key = (N, n)
    cached = _QBIN_CACHE.get(key)
    if cached is not None:
        return cached
    # Pascal recurrence [N, n] = [N-1, n-1] + q^n * [N-1, n]
    left = _qbin_poly(N - 1, n - 1)
    right = _qbin_poly(N - 1, n)
    size = max(len(left), n + len(right))
    out = [0] * size
    for i, v in enumerate(left):
        out[i] += v
    for i, v in enumerate(right):
        out[i + n] += v
    result = tuple(out)
    _QBIN_CACHE[key] = result
    return result


def q_binomial(N: int, n: int, order: int) -> QSeries:
    """The Gaussian binomial [N, n] as an exact polynomial, truncated.

    Computed by the Pascal recurrence (never series division), so the
    coefficients are non-negative integers; [N, n] = 0 outside 0 <= n <= N.
    """
    poly = _qbin_poly(N, n)[: order + 1]
    return _raw(poly + (0,) * (order + 1 - len(poly)), 1)


# -- term-ratio summation -----------------------------------------------------


S = TypeVar("S")  # QSeries, or a type with its methods
_PROBE = QSeries.zero(0)  # a ratio applied to it raises what it raises anywhere


def term_sum(one: S, ratio: Callable[[int], tuple], start: int = 0, stop: Optional[int] = None,
             weight: Optional[Callable[[int], tuple]] = None) -> S:
    """sum_{n=start}^{M} t_n W_n to the order T of one, the unit series of the
    type to build: t_n = R_start ... R_n for R_n = ratio(n) as apply_ratio's
    (scalar, shift, up, down), so a sign or a prefactor rides in
    ratio(start), and W_n = weight(n) as (scalar, up, down), never zero (1
    without a weight).  Nested from the last index in (Haible and
    Papanikolaou, 1998), S'_(n-1) = 1 + R_n (W_n / W_(n-1)) S'_n from
    S'_M = 1 to R_start W_start S'_start, each S'_n carried to order T - v_n
    (v_n the q-valuation of t_n): one kernel call per index.  M is the last
    n <= stop before the first t_n zero to order T (v_n > T, a zero scalar
    or a factor 1 - q^0 above); exact when ratios divide only by factors
    with a nonzero constant term.  Ratios and weights are read in index
    order first, and an error is the first that the forward stream,
    ratio_terms, would raise.  README's design notes say more.
    """
    T, levels, read = one.order, [], []  # levels (R_n, W_n, v_n) for n = start..M
    n, v = start, 0
    try:
        while stop is None or n <= stop:
            r = ratio(n)
            read.append(r)
            v += r[1]
            if v > T or not r[0] or any(e == 0 and c == 1 for c, e in r[2]):
                _PROBE.apply_ratio(*r)  # as the forward stream applies it
                break
            w = weight(n) if weight else None
            if w:
                read.append((w[0], 0, w[1], w[2]))
            levels.append((r, w, v))
            n += 1
        s = one.truncate(T - levels[-1][2]) if levels else one.scale(0)  # S'_M
        for i in range(len(levels) - 1, -1, -1):
            (scalar, shift, up, down), w, _ = levels[i]
            _, prev, outer = levels[i - 1] if i else (None, (1, (), ()), 0)
            if w:  # times W_n / W_(n-1)
                scalar, up, down = scalar * w[0], [*up, *w[1], *prev[2]], [*down, *w[2], *prev[1]]
                if prev[0] != 1:
                    scalar /= Fraction(prev[0])
            if i or w or (scalar, shift, up, down) != (1, 0, (), ()):  # R_start = 1 leaves S'_start
                s = s.apply_ratio(scalar, shift, up, down, int(i > 0), T - outer)
        return s
    except Exception:
        for r in read:  # the forward stream's first error
            _PROBE.apply_ratio(*r)
        raise


def ratio_terms(first: S, ratio: Callable[[int], tuple], start: int = 0, stop: Optional[int] = None):
    """term_sum's terms from first, t_start = first R_start, lazily and by its
    stop: the forward stream, for a sum that needs its terms."""
    t = first
    del first  # t drops it at the first step
    for n in count(start) if stop is None else range(start, stop + 1):
        t = t.apply_ratio(*ratio(n))
        if t.is_zero():
            return
        yield t


def phi_series(
    numerators: Sequence[QMonomial],
    denominators: Sequence[QMonomial],
    argument: QMonomial,
    one: S,
) -> S:
    """Truncated basic hypergeometric sum in the standard convention:

        sum_k  prod_i (num_i; q)_k / (prod_j (den_j; q)_k (q; q)_k)
               * [(-1)^k q^(k(k-1)/2)]^(1+s-r) * argument^k

    with r = len(numerators), s = len(denominators), summed by term_sum
    from one, the unit series of the type and truncation order to build.
    The sum stops at the first term that vanishes to the truncation
    order, so the term order has to grow with k: argument.exp >= 1 or
    s >= r.  A scalar-argument series with s < r, whose terms never
    vanish, is summed by identities.common.tail_sum instead.
    """
    r, s = len(numerators), len(denominators)
    weight = 1 + s - r
    if weight < 0:
        raise ValueError("series with r > s + 1 are not used by this laboratory")
    if argument.exp < 1 and weight < 1 and argument.coeff != 0:
        raise ValueError(
            "the terms never vanish to the truncation order; sum a "
            "scalar-argument series with identities.common.tail_sum"
        )
    sign = Fraction(-1) ** weight

    def ratio(k: int) -> tuple:
        # term_k = term_{k-1} * argument * [(-1) q^{k-1}]^weight
        #          * prod(1 - num*q^{k-1}) / (prod(1 - den*q^{k-1}) (1 - q^k))
        if not k:
            return 1, 0, (), ()
        scalar, shift = sign * argument.coeff, argument.exp + weight * (k - 1)
        if any(mono.exp + k == 1 and mono.coeff == 1 for mono in denominators):
            # t_k has q-valuation k * argument.exp + weight * k(k-1)/2
            if scalar and k * argument.exp + weight * k * (k - 1) // 2 <= one.order:
                raise PoleInTermRangeError(f"denominator factor (1 - q^0) vanishes at k = {k}")
            return scalar, shift, (), ()  # t_k is zero: the sum ends here, before the pole
        up = [(mono.coeff, mono.exp + k - 1) for mono in numerators]
        down = [(mono.coeff, mono.exp + k - 1) for mono in denominators]
        return scalar, shift, up, down + [(1, k)]

    return term_sum(one, ratio)
