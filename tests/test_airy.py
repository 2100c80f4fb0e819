from fractions import Fraction

import pytest

from dessin import airy
from dessin.coeffs import GaussianRational
from dessin.laurent import LaurentPolynomial
from dessin.report import run_comparisons
from dessin.series import TruncatedSeries


def test_y_series_is_odd():
    y = airy.y_branch_series("plus", 9)
    assert all(k % 2 == 1 for k, _ in y.items())
    assert airy.times("plus", 2).is_zero()
    assert airy.times("plus", 4).is_zero()


def test_minus_branch_carries_imaginary_unit():
    lead = airy.times("minus", 1)
    assert any(isinstance(c, GaussianRational) and c.im != 0 for _, c in lead.terms())


@pytest.mark.parametrize("branch", airy.BRANCHES)
def test_y_square_reconstruction(branch):
    report = run_comparisons(
        "y2-reconstruction", {"branch": branch}, airy.y_square_reconstruction_comparisons(branch, 10)
    )
    assert report.passed, report.first_discrepancy


def test_leading_coefficient_squared():
    # the square of the xi-coefficient is 4 sqrt(uv) s / (s (sqrt(u)+sqrt(v))^2)^2
    lead = airy.times("plus", 1)
    expected = LaurentPolynomial.monomial(4, {"qa": 2, "qb": 2, "qs": -2, "r": -4})
    assert lead * lead == expected


def test_times_by_multiplying_displayed_auxiliary_series():
    """Independent route: (1+4x)^{1/2} = 1 + 2 sum (-1)^m/(m+1) C(2m,m) x^{m+1}
    with x = xi^2/(16 sqrt(uv) s), and the geometric series for the
    denominator, multiplied termwise."""
    order = 9
    x_val = LaurentPolynomial.monomial(Fraction(1, 16), {"qa": -2, "qb": -2, "qs": -2})
    sqrt_aux = {0: LaurentPolynomial.constant(1)}
    from math import comb

    for m in range(order // 2 + 1):
        coeff = 2 * Fraction((-1) ** m, m + 1) * comb(2 * m, m)
        sqrt_aux[2 * (m + 1)] = coeff * x_val ** (m + 1)
    sqrt_series = TruncatedSeries.from_map("xi", {k: v for k, v in sqrt_aux.items() if k <= order}, order)

    ratio = LaurentPolynomial.monomial(1, {"qs": -2, "r": -2})
    geom = TruncatedSeries.from_map(
        "xi", {2 * k: (-1) ** k * ratio ** k for k in range(order // 2 + 1)}, order
    )
    prefactor = LaurentPolynomial.monomial(2, {"qa": 1, "qb": 1, "qs": -1, "r": -2})
    oracle = (sqrt_series * geom * prefactor).shift(1)

    for k in (1, 3, 5, 7):
        assert airy.times("plus", k) == oracle.coefficient(k), k


def test_t_rows_small():
    for n, expected in enumerate(airy.T_ROWS):
        assert [int(x) for x in airy.t_row(n).values] == expected, n


def test_t_row_three_against_generating_identity():
    """Extract row 3 from 1 - sqrt((1-ax)(1-bx)) rather than guessing it."""
    a = LaurentPolynomial.variable("a")
    b = LaurentPolynomial.variable("b")
    lhs = 1 - (
        TruncatedSeries.from_map("x", {0: 1, 1: -a}, 5) * TruncatedSeries.from_map("x", {0: 1, 1: -b}, 5)
    ).sqrt()
    # x^5 coefficient must be (b-a)^2/8 * (1/4^3) * sum_k T(3,k) a^k b^{3-k}
    row = sum(
        (airy.t_number(3, k) * a ** k * b ** (3 - k) for k in range(4)), LaurentPolynomial.zero()
    )
    assert lhs.coefficient(5) == Fraction(1, 8 * 64) * (b - a) ** 2 * row
    assert [int(x) for x in airy.t_row(3).values] == [14, 18, 18, 14]


def test_t_symmetry_and_integrality():
    for n in range(21):
        row = airy.t_row(n)  # integrality and positivity asserted inside
        assert row.values == tuple(reversed(row.values))


def test_t_number_bounds():
    with pytest.raises(ValueError):
        airy.t_number(3, 4)
    with pytest.raises(ValueError):
        airy.t_number(3, -1)


@pytest.mark.parametrize("name", airy.local_identity_names())
def test_local_identities_order_six(name):
    report = airy.local_identity_check(name, 6)
    assert report.passed, (name, report.first_discrepancy)


def test_sqrt_product_order_eight():
    assert airy.local_identity_check("sqrt-product", 8).passed


def test_local_identity_errors():
    with pytest.raises(KeyError):
        airy.local_identity_check("nope", 6)
    with pytest.raises(ValueError):
        airy.local_identity_check("bergman-pp", 1)


def test_bergman_pp_first_blocks():
    # the tail opens with -2t + 3(2x^2 + 2y^2) t^2
    x = LaurentPolynomial.variable("x")
    y = LaurentPolynomial.variable("y")
    tail = airy._kernel_tail(4, x, y)
    assert tail.coefficient(1) == LaurentPolynomial.constant(-2)
    assert tail.coefficient(2) == 6 * x ** 2 + 6 * y ** 2


def test_bergman_kernel_local_substitution():
    report = airy.bergman_local_match_report(4)
    assert report.passed, report.first_discrepancy
