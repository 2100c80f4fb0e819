from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dessin.laurent import LaurentPolynomial, binom_fraction
from dessin.series import (
    SeriesError,
    SeriesWindowError,
    TruncatedSeries,
    residue_coefficient,
    series_compose,
    series_invert,
    series_sqrt,
)

U = LaurentPolynomial.variable("u")
V = LaurentPolynomial.variable("v")


def test_sqrt_of_one_minus_four_t():
    # oracle: (1+x)^{1/2} binomial series evaluated at x = -4t
    f = TruncatedSeries.from_map("t", {0: 1, 1: -4}, 4)
    g = series_sqrt(f)
    for k in range(5):
        expected = binom_fraction(Fraction(1, 2), k) * Fraction(-4) ** k
        assert g.coefficient(k) == LaurentPolynomial.constant(expected)
    assert [str(g.coefficient(k)) for k in range(5)] == ["1", "-2", "-2", "-4", "-10"]


def test_sqrt_of_one():
    assert series_sqrt(TruncatedSeries.one("t", 5)) == TruncatedSeries.one("t", 5)


def test_sqrt_discriminant_squares_back():
    f = TruncatedSeries.from_map("z", {0: 1, 1: -2 * (U + V), 2: (U - V) ** 2}, 2)
    g = series_sqrt(f)
    assert g.coefficient(1) == -(U + V)
    assert g.coefficient(2) == -2 * U * V
    assert (g * g).matches(f)


def test_sqrt_rejects_non_unit_constant():
    with pytest.raises(SeriesError):
        series_sqrt(TruncatedSeries.from_map("t", {0: 2, 1: 1}, 3))
    with pytest.raises(SeriesError):
        series_sqrt(TruncatedSeries.from_map("t", {1: 1}, 3))


def test_invert_geometric():
    inv = series_invert(TruncatedSeries.from_map("x", {0: 1, 1: -1}, 3))
    assert all(inv.coefficient(k) == LaurentPolynomial.constant(1) for k in range(4))
    assert series_invert(TruncatedSeries.one("x", 4)) == TruncatedSeries.one("x", 4)


def test_compose_direct_expansion_oracle():
    # 1/(1-y) at y = 2x + x^2, order 2: 1 + (2x+x^2) + (2x+x^2)^2 + ... = 1 + 2x + 5x^2
    f = series_invert(TruncatedSeries.from_map("y", {0: 1, 1: -1}, 2))
    g = TruncatedSeries.from_map("x", {1: 2, 2: 1}, 2)
    h = series_compose(f, g)
    assert [h.coefficient(k) for k in range(3)] == [LaurentPolynomial.constant(c) for c in (1, 2, 5)]


def test_compose_rejects_nonpositive_valuation():
    f = TruncatedSeries.one("y", 3)
    with pytest.raises(SeriesError):
        series_compose(f, TruncatedSeries.from_map("x", {0: 1, 1: 1}, 3))


def test_residue_examples():
    assert residue_coefficient(TruncatedSeries.from_map("z", {-1: 3, 0: 5, 1: 1}, 1)) == LaurentPolynomial.constant(3)
    assert residue_coefficient(TruncatedSeries.from_map("z", {-2: 1}, 0)).is_zero()


def test_residue_of_geometric_kernel():
    # (beta/z) * 1/(1 - z^2/z0^2) has residue beta at z = 0
    beta = (LaurentPolynomial.variable("a") + LaurentPolynomial.variable("b")) ** 2
    geom = TruncatedSeries.from_map(
        "z", {2 * k: LaurentPolynomial.monomial(1, {"z0": -2 * k}) for k in range(4)}, 7
    )
    f = geom.shift(-1) * beta
    assert residue_coefficient(f) == beta


def test_residue_window_error():
    with pytest.raises(SeriesWindowError):
        residue_coefficient(TruncatedSeries.from_map("z", {0: 1}, 2))


def test_reading_beyond_order_is_an_error():
    f = TruncatedSeries.from_map("t", {0: 1}, 2)
    with pytest.raises(SeriesWindowError):
        f.coefficient(3)
    # below the stored minimum is structurally zero, not an error
    assert f.coefficient(-5).is_zero()


def test_product_validity_window():
    f = TruncatedSeries.from_map("t", {-2: 1}, 1)   # valid through t^1
    g = TruncatedSeries.from_map("t", {3: 1}, 10)   # valid through t^10
    h = f * g
    assert h.order == min(f.order + g.min_exp, g.order + f.min_exp)
    with pytest.raises(SeriesWindowError):
        h.coefficient(h.order + 1)


def test_differentiate_and_shift():
    f = TruncatedSeries.from_map("t", {-1: 2, 2: U}, 4)
    d = f.differentiate()
    assert d.coefficient(-2) == LaurentPolynomial.constant(-2)
    assert d.coefficient(1) == 2 * U
    assert f.shift(3).coefficient(2) == LaurentPolynomial.constant(2)


def test_unit_pow_matches_sqrt_and_invert():
    f = TruncatedSeries.from_map("t", {0: 1, 1: U, 2: -3}, 6)
    assert f.unit_pow(Fraction(1, 2)).matches(f.sqrt())
    assert f.unit_pow(Fraction(-1)).matches(f.invert())
    # (f^{1/2})^2, (f^{-1}) f round trips
    assert (f.sqrt() * f.sqrt()).matches(f)
    assert (f.invert() * f).matches(TruncatedSeries.one("t", 6))


# -- randomized unit-series laws -----------------------------------------------

small_fracs = st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12)


@st.composite
def unit_series(draw):
    order = draw(st.integers(min_value=1, max_value=6))
    coeffs = {0: LaurentPolynomial.constant(1)}
    for k in range(1, order + 1):
        c = draw(small_fracs)
        du = draw(st.integers(min_value=0, max_value=2))
        coeffs[k] = LaurentPolynomial.constant(c) * U ** du
    return TruncatedSeries.from_map("t", coeffs, order)


@settings(max_examples=200, deadline=None)
@given(unit_series())
def test_sqrt_squares_back(f):
    g = series_sqrt(f)
    assert (g * g).matches(f)


@settings(max_examples=200, deadline=None)
@given(unit_series())
def test_invert_multiplies_back(f):
    assert (series_invert(f) * f).matches(TruncatedSeries.one("t", f.order))


@settings(max_examples=60, deadline=None)
@given(unit_series(), unit_series(), small_fracs, small_fracs)
def test_residue_linearity(f, g, x, y):
    order = min(f.order, g.order)
    fs = f.truncated(order).shift(-2)
    gs = g.truncated(order).shift(-2)
    combo = x * fs + y * gs
    expected = x * residue_coefficient(fs) + y * residue_coefficient(gs)
    try:
        actual = residue_coefficient(combo)
    except SeriesWindowError:
        # the combination vanished identically, so trimming moved the stored
        # window above -1; linearity then demands a zero right-hand side
        assert combo.is_zero()
        actual = LaurentPolynomial.zero()
    assert actual == expected
