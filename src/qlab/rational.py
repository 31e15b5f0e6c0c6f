"""Exact rational scalars: parameter values and series coefficients.

All parameter values and series coefficients are arbitrary-precision
rationals, always in lowest terms with a positive denominator, and all
arithmetic is exact.  gmpy2's mpq is used when available;
``fractions.Fraction`` otherwise.  Set QLAB_RATIONAL=fractions to force
the stdlib backend.

The backend matters only at the boundary of the series engine.  QSeries
stores int numerators over one shared denominator and runs its kernels
on plain ints, so a Rat is built from a (numerator, denominator) pair
only when a coefficient is read (``coeffs``, indexing,
``constant_term``), and is taken apart with ``int(x.numerator)`` and
``int(x.denominator)`` when a series or a scalar argument comes in.  The
remaining scalar arithmetic on Rats is on parameters, in the identity
builders.

Rationals cross text boundaries (CLI flags, JSON, TSV) as "p/q" strings,
never as decimals.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import Union

if os.environ.get("QLAB_RATIONAL") == "fractions":
    _ctor = Fraction
    BACKEND = "fractions"
else:
    try:
        from gmpy2 import mpq as _ctor

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
        _ctor = Fraction
        BACKEND = "fractions"

Rat = Union[Fraction, object]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def rat(numerator: int = 0, denominator: int = 1) -> Rat:
    """Build an exact rational numerator/denominator."""
    return _ctor(numerator, denominator)


ZERO = rat(0)
ONE = rat(1)


def parse_rat(text: str) -> Rat:
    """Parse a strict "p/q" (or bare integer) literal.

    Decimals are rejected so no value can silently lose exactness.
    """
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not an exact rational literal (expected p or p/q): {text!r}")
    if "/" in text:
        num, den = text.split("/")
        return _ctor(int(num), int(den))
    return _ctor(int(text))


def format_rat(x: Rat) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)
