from fractions import Fraction

import pytest

from qlab.rational import format_rat, parse_rat


def test_lowest_terms_and_positive_denominator():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2


def test_parse_roundtrip():
    for text in ["0", "7", "-7", "1/2", "-22/7", "+3/9"]:
        value = parse_rat(text)
        assert parse_rat(format_rat(value)) == value


@pytest.mark.parametrize("bad", ["0.5", "1/0", "1/-2", "a/b", "", "1 / 2", "1e3"])
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_exact_arithmetic():
    x = Fraction(1, 3)
    assert x + x + x == 1
    assert Fraction(1, 10) + Fraction(2, 10) == Fraction(3, 10)
