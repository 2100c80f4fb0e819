from fractions import Fraction

import pytest

from dessin.coeffs import GaussianRational, I, canonical_coeff, format_coeff, parse_coeff


def test_gaussian_arithmetic_closed():
    x = GaussianRational(Fraction(1, 2), Fraction(3))
    y = GaussianRational(Fraction(-2), Fraction(1, 5))
    assert x + y == GaussianRational(Fraction(-3, 2), Fraction(16, 5))
    assert x * y == GaussianRational(Fraction(1, 2) * -2 - 3 * Fraction(1, 5), Fraction(1, 10) + -6)
    assert (x / y) * y == x
    assert x - x == GaussianRational(Fraction(0), Fraction(0))


def test_i_squares_to_minus_one():
    assert I * I == Fraction(-1)
    assert canonical_coeff(I * I) == Fraction(-1)


def test_mixed_arithmetic_with_fractions():
    x = GaussianRational(Fraction(1), Fraction(1))
    assert 2 * x == GaussianRational(Fraction(2), Fraction(2))
    assert x + Fraction(1, 2) == GaussianRational(Fraction(3, 2), Fraction(1))
    assert Fraction(1) / x == GaussianRational(Fraction(1, 2), Fraction(-1, 2))


def test_real_gaussian_collapses_to_fraction():
    assert canonical_coeff(GaussianRational(Fraction(3, 4), Fraction(0))) == Fraction(3, 4)
    assert isinstance(canonical_coeff(GaussianRational(Fraction(3, 4), Fraction(0))), Fraction)


@pytest.mark.parametrize(
    "value",
    [
        Fraction(3, 7),
        Fraction(-12),
        GaussianRational(Fraction(1, 2), Fraction(-3, 4)),
        GaussianRational(Fraction(0), Fraction(2)),
        GaussianRational(Fraction(-1, 3), Fraction(5)),
    ],
)
def test_format_parse_round_trip(value):
    assert parse_coeff(format_coeff(value)) == canonical_coeff(value)
