"""Exact rational scalars: parameter values and series coefficients.

The one scalar type is ``fractions.Fraction``: arbitrary precision,
always in lowest terms with a positive denominator, and exact.

QSeries stores int numerators over one shared denominator and runs its
kernels on plain ints, so a Fraction is built only when a coefficient is
read (``coeffs``, indexing, ``constant_term``), and is taken apart into
its ``numerator`` and ``denominator`` when a series or a scalar argument
comes in.  The remaining scalar arithmetic on Fractions is on
parameters, in the identity builders.

Rationals cross text boundaries (CLI flags, JSON, TSV) as "p/q" strings,
never as decimals.
"""

from __future__ import annotations

import re
from fractions import Fraction

BACKEND = "fractions"  # the scalar type's name, as run provenance records it

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rat(text: str) -> Fraction:
    """Parse a strict "p/q" (or bare integer) literal.

    Decimals are rejected so no value can silently lose exactness.
    """
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not an exact rational literal (expected p or p/q): {text!r}")
    return Fraction(text)


def format_rat(x: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)
