import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from dessin import airy, cli, eo
from dessin.closedforms import power_rows
from dessin.coeffs import GaussianRational
from dessin.laurent import LaurentPolynomial, mul_trunc, unit_pow_trunc
from dessin.report import VerificationReport, run_comparisons
from dessin.series import TruncatedSeries

BRANCH_POINT_OUTPUTS = Path(__file__).parent / "data" / "branch_point_outputs.json"

QS = LaurentPolynomial.variable("qs")
QA = LaurentPolynomial.variable("qa")
QB = LaurentPolynomial.variable("qb")
R = LaurentPolynomial.variable("r")
XI = "xi"

# -- TruncatedSeries references for the row-based expansions in dessin.airy ---------


def y_square_reconstruction_comparisons(branch: str, order: int):
    """y^2 (s r^2 + xi^2)^2 against +- xi^2 (4 sqrt(uv) s +- xi^2), termwise."""
    sign = 1 if branch == "plus" else -1
    y = TruncatedSeries.from_map(XI, airy.y_branch_series(branch, order), order)
    sr2 = QS ** 2 * R ** 2
    clearing = TruncatedSeries.from_map(XI, {0: sr2 * sr2, 2: 2 * sr2, 4: 1}, 2 * order)
    lhs = y * y * clearing
    four_abs = 4 * QA ** 2 * QB ** 2 * QS ** 2
    rhs = TruncatedSeries.from_map(
        XI, {2: sign * four_abs, 4: LaurentPolynomial.constant(1)}, 2 * order
    )
    for k in range(lhs.order + 1):
        yield ((branch, k), rhs.coefficient(k), lhs.coefficient(k))


def _z_local_series(order: int):
    """Odd coefficients c_k of z(xi) = xi / (4 s sqrt(uv) + xi^2)^{1/2}, so
    z = sum_k c_k xi^{2k+1}."""
    inv_lead = LaurentPolynomial.monomial(Fraction(1, 2), {"qs": -1, "qa": -1, "qb": -1})
    quarter_inv = LaurentPolynomial.monomial(Fraction(1, 4), {"qa": -2, "qb": -2, "qs": -2})
    base = TruncatedSeries.from_map(XI, {0: 1, 2: quarter_inv}, 2 * order).unit_pow(Fraction(-1, 2))
    return [inv_lead * base.coefficient(2 * k) for k in range(order + 1)]


def bergman_local_match_report(order_per_var: int = 4) -> VerificationReport:
    """dz1 dz2/(z1-z2)^2 in the plus-branch coordinates reproduces the
    same-branch kernel expansion with t = 1/(16 s sqrt(uv)):

        (xi1-xi2)^2 * B = 1 + (xi1-xi2)^2 * S(t)|_{x=xi1, y=xi2}.
    """
    x1, x2 = "xi1", "xi2"
    X1, X2 = LaurentPolynomial.variable(x1), LaurentPolynomial.variable(x2)
    bound = 2 * order_per_var + 2
    cs = _z_local_series(bound // 2 + 1)

    def h(m: int) -> LaurentPolynomial:
        out = LaurentPolynomial.zero()
        for i in range(m + 1):
            out = out + X1 ** i * X2 ** (m - i)
        return out

    # (z1 - z2)/(xi1 - xi2) = sum_k c_k h_{2k}; dz_j/dxi_j termwise
    q = LaurentPolynomial.zero()
    d1 = LaurentPolynomial.zero()
    d2 = LaurentPolynomial.zero()
    for k, ck in enumerate(cs):
        if 2 * k > bound:
            break
        q = q + ck * h(2 * k)
        d1 = d1 + (2 * k + 1) * ck * X1 ** (2 * k)
        d2 = d2 + (2 * k + 1) * ck * X2 ** (2 * k)
    lead = cs[0]
    unit_q = q * lead.inverse_monomial()
    inv_q2 = unit_pow_trunc(mul_trunc(unit_q, unit_q, (x1, x2), bound), Fraction(-1), (x1, x2), bound)
    lhs = mul_trunc(mul_trunc(d1, d2, (x1, x2), bound), inv_q2, (x1, x2), bound) * (
        lead.inverse_monomial() ** 2
    )

    t_val = LaurentPolynomial.monomial(Fraction(1, 16), {"qs": -2, "qa": -2, "qb": -2})
    tail = LaurentPolynomial.zero()
    for n in range(order_per_var + 1):
        row = LaurentPolynomial.zero()
        for k in range(n + 1):
            row = row + airy.t_number(n, k) * X1 ** (2 * k) * X2 ** (2 * n - 2 * k)
        tail = tail + (n + 2) * Fraction((-1) ** (n + 1)) * (t_val ** (n + 1)) * row
    rhs = 1 + mul_trunc((X1 - X2) ** 2, tail, (x1, x2), bound)

    def comparisons():
        for e1 in range(order_per_var + 1):
            for e2 in range(order_per_var + 1):
                yield (
                    (e1, e2),
                    rhs.coefficient_of(x1, e1).coefficient_of(x2, e2),
                    lhs.coefficient_of(x1, e1).coefficient_of(x2, e2),
                )

    return run_comparisons("local:bergman-substitution", {"order_per_var": order_per_var}, comparisons())


# -- tests -----------------------------------------------------------------------------


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
        "y2-reconstruction", {"branch": branch}, y_square_reconstruction_comparisons(branch, 10)
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
    tail = airy._kernel_tail(4)
    assert airy._graded(airy.XY, tail[0]) == LaurentPolynomial.constant(-2)
    assert airy._graded(airy.XY, tail[1]) == 6 * x ** 2 + 6 * y ** 2


def test_bergman_kernel_local_substitution():
    report = bergman_local_match_report(4)
    assert report.passed, report.first_discrepancy


def test_radical_rows_match_the_series_product():
    """power_rows' rows of sqrt((1+4x^2 t)(1+4y^2 t)) against TruncatedSeries, through t^8."""
    x = LaurentPolynomial.variable("x")
    y = LaurentPolynomial.variable("y")
    product = TruncatedSeries.from_map("t", {0: 1, 1: 4 * x ** 2}, 8) * TruncatedSeries.from_map(
        "t", {0: 1, 1: 4 * y ** 2}, 8
    )
    rows = power_rows(-1, *airy.RADICAND, 9)
    assert [airy._graded(airy.XY, row) for row in rows] == [product.sqrt().coefficient(j) for j in range(9)]


def test_branch_point_outputs_match_the_pinned_digests():
    """stdout of dessin times, verify --suite local and verify --suite curve-identity, pinned
    before these expansions moved from truncated series to integer rows."""
    pins = json.loads(BRANCH_POINT_OUTPUTS.read_text())
    changed = []
    for command, digest in pins.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(command.split()[1:]) == 0, command
        if hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            changed.append(command)
    assert len(pins) == 80 and not changed, changed


def _broken_rows(real):
    def rows(m, a1, a2, count):
        out = list(real(m, a1, a2, count))
        if count > 3:
            out[3] = (out[3][0] + 1,) + out[3][1:]
        return out

    return rows


@pytest.mark.parametrize("name", airy.local_identity_names())
def test_a_broken_row_fails_with_polynomials(monkeypatch, name):
    monkeypatch.setattr(airy, "power_rows", _broken_rows(airy.power_rows))
    report = airy.local_identity_check(name, 6)
    assert not report.passed and report.checked_count == 7
    found = report.first_discrepancy
    assert found["location"][1] == 3 and found["expected"] != found["actual"]
    variables = ("a", "b") if name == "sqrt-product" else airy.XY
    assert any(v in found["expected"] + found["actual"] for v in variables), found


def test_a_broken_curve_row_fails_with_polynomials(monkeypatch):
    engine = eo.EOEngine()
    alpha, beta = engine._gaps
    monkeypatch.setattr(engine, "_gaps", (alpha, (beta[0] + 1,) + beta[1:]))
    report = engine.curve_identity_report(6)
    assert not report.passed and report.checked_count == 14
    found = report.first_discrepancy
    assert found["location"] == ["zero", 0] and "s^2" in found["expected"] + found["actual"], found
