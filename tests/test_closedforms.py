from fractions import Fraction
from math import comb

import pytest

from dessin import cli, closedforms as cf
from dessin.laurent import LaurentPolynomial, binom_fraction
from dessin.npoint import as_polynomial, as_vector
from dessin.report import run_comparisons
from dessin.series import TruncatedSeries

S, U, V, T, G0 = (LaurentPolynomial.variable(name) for name in ("s", "u", "v", "t", "g0"))


def delta_series(var: str, order: int) -> TruncatedSeries:
    """Delta as a series in t = 1/x: the reference for the rows of the recurrence."""
    return TruncatedSeries.from_map(var, {0: 1, 1: -2 * S * (U + V), 2: S * S * (U - V) ** 2}, order)


# each catalog radicand as (a1, a2), as a series in w, and the w^j coefficient that row j stands for
CATALOG_RADICANDS = [
    (cf.QUADRATIC, {0: 1, 2: -4 * T}, lambda j, c: c * T ** (j // 2)),
    (cf.QUADRATIC, {0: 1, 2: -2 * G0}, lambda j, c: Fraction(c, 2 ** (j // 2)) * G0 ** (j // 2)),
    (cf.LINEAR, {0: 1, 1: -4 * T}, lambda j, c: c * T ** j),
]


# -- Narayana / Catalan ----------------------------------------------------------


def test_narayana_row_four():
    assert [cf.narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]


def test_narayana_at_one_is_catalan():
    for n in range(1, 21):
        assert sum(cf.narayana(n, k) for k in range(1, n + 1)) == cf.catalan(n)


def test_narayana_bounds():
    assert cf.narayana(1, 1) == 1
    with pytest.raises(ValueError):
        cf.narayana(3, 0)
    with pytest.raises(ValueError):
        cf.narayana(3, 4)


# -- dessin closed forms -----------------------------------------------------------


def test_g01_matches_printed_numerators():
    g01 = cf.dessin_closed_series("G01", 7)
    for n, expected in cf.G01_NUMERATORS.items():
        assert g01.coefficient((n,)) == as_polynomial(n, expected)


def test_g01_equals_recursion(vir):
    g01 = cf.dessin_closed_series("G01", 10)
    for n in range(1, 10):
        assert g01.coefficient((n,)) == vir.weighted_correlator(0, (n,))


def test_g02_symmetric_and_equals_recursion(vir):
    g02 = cf.dessin_closed_series("G02", 10)
    assert g02.coefficient((2, 4)) == g02.coefficient((4, 2))
    assert vir.npoint_series(0, 2, 10).first_difference(g02) is None


def test_g03_and_g11_equal_recursion(vir):
    assert vir.npoint_series(0, 3, 9).first_difference(cf.dessin_closed_series("G03", 9)) is None
    assert vir.npoint_series(1, 1, 9).first_difference(cf.dessin_closed_series("G11", 9)) is None


def test_g11_second_term_by_binomial_expansion():
    # u v s^3 x^{-4} Delta^{-5/2}: the x^{-5} coefficient is
    # u v s^3 * binom(-5/2, 1) * (-2 s (u + v))
    expected = U * V * S ** 3 * binom_fraction(Fraction(-5, 2), 1) * (-2 * S * (U + V))
    assert expected == 5 * U * V * (U + V) * S ** 4
    assert cf.dessin_closed_series("G11", 6).coefficient((4,)) == expected


@pytest.mark.parametrize("m", [-1, 1, 3, 5])
def test_delta_power_rows_match_the_truncated_series(m):
    series = delta_series("t", 16).unit_pow(Fraction(-m, 2))
    assert cf.delta_power_rows(m, 17) == [as_vector(k, k, series.coefficient(k)) for k in range(17)]
    for (a1, a2), radicand, at in CATALOG_RADICANDS:
        series = TruncatedSeries.from_map("w", radicand, 16).unit_pow(Fraction(-m, 2))
        rows = cf.power_rows(m, a1, a2, 17)
        assert [at(j, row[0]) for j, row in enumerate(rows)] == [series.coefficient(j) for j in range(17)]


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_an_off_by_one_row_breaks_the_double_pole_checks(k, monkeypatch):
    rows = cf.delta_power_rows

    def off_by_one(m, count):
        out = rows(m, count)
        out[k] = (out[k][0] + 1,) + out[k][1:]
        return out

    monkeypatch.setattr(cf, "delta_power_rows", off_by_one)
    with pytest.raises(AssertionError, match="double-pole subtraction left residue"):
        cf.dessin_closed_series("G02", 8)


def test_a_perturbed_double_pole_fails_every_two_point_check(vir, monkeypatch):
    """One routine serves G02, hermitian/two and even-coupling/two: flipping the
    sign of the numerator's coupling terms breaks all of them."""
    double_pole = cf._double_pole

    def perturbed(num, drop, rows):
        return double_pole({k: c if k == (0, 0) else tuple(-x for x in c) for k, c in num.items()}, drop, rows)

    monkeypatch.setattr(cf, "_double_pole", perturbed)
    with pytest.raises(AssertionError, match="double-pole subtraction left residue"):
        cli.suite_closed_form(vir, "G02", 10)
    with pytest.raises(AssertionError, match="double-pole subtraction left residue"):
        cf.catalog_check("dessin/two", 8)
    assert cf.catalog_check("hermitian/two", 6).first_discrepancy == {
        "location": [3, 1], "expected": "0", "actual": "4*t"}
    assert cf.catalog_check("even-coupling/two", 6).first_discrepancy == {
        "location": [2, 1], "expected": "0", "actual": "2*t"}


def test_closed_forms_equal_recursion_at_order_16(vir):
    for which, (g, n) in [("G02", (0, 2)), ("G03", (0, 3)), ("G11", (1, 1))]:
        assert vir.npoint_series(g, n, 16).first_difference(cf.dessin_closed_series(which, 16)) is None


def test_unknown_closed_form():
    with pytest.raises(ValueError):
        cf.dessin_closed_series("G99", 6)


# -- generating-function identities ---------------------------------------------------


@pytest.mark.parametrize("name", cf.identity_names())
def test_identity_passes(name):
    report = cf.gf_identity_check(name, 8)
    assert report.passed, report.first_discrepancy


def test_identity_reports_are_reports():
    report = cf.gf_identity_check("narayana-gf", 6)
    assert report.suite == "identity:narayana-gf"
    assert report.checked_count == 7
    assert report.first_discrepancy is None


def test_identity_rejects_unknown_name_and_tiny_order():
    with pytest.raises(KeyError):
        cf.gf_identity_check("nope", 6)
    with pytest.raises(ValueError):
        cf.gf_identity_check("narayana-gf", 1)


def test_collapse_u_v_to_one_gives_catalan_and_central_binomial():
    # Narayana rows at u = v = 1 are Catalan numbers; squared-binomial rows
    # sum to central binomials
    for n in range(1, 16):
        assert sum(cf._narayana_row(n)) == cf.catalan(n)
        assert sum(cf._square_binomial_row(n)) == comb(2 * n, n)


def test_catalog_and_identities_expand_no_truncated_series(monkeypatch):
    """Every identity and catalog check reads integer rows, not a series."""
    def no_series(*args, **kwargs):
        raise AssertionError("a check expanded a series")

    for name in ("sqrt", "invert", "unit_pow", "__mul__"):
        monkeypatch.setattr(TruncatedSeries, name, no_series)
    for name in cf.identity_names():
        report = cf.gf_identity_check(name, 10)
        assert report.passed, (name, report.first_discrepancy)
    for key in cf.catalog_names():
        report = cf.catalog_check(key, 8)
        assert report.passed, (key, report.first_discrepancy)


def test_a_wrong_row_fails_an_identity_and_prints_polynomials(monkeypatch):
    rows = cf.delta_power_rows

    def off_by_one(m, count):
        out = rows(m, count)
        out[3] = (out[3][0] + 1,) + out[3][1:]
        return out

    monkeypatch.setattr(cf, "delta_power_rows", off_by_one)
    for name in set(cf.identity_names()) - {"typeB-gf"}:
        report = cf.gf_identity_check(name, 6)
        assert not report.passed, name
        assert "(" not in report.first_discrepancy["actual"], name
    assert cf.gf_identity_check("typeB-gf", 6).passed  # it expands its own factored radicand
    report = cf.gf_identity_check("central-binomial-gf", 6)
    assert report.first_discrepancy == {
        "location": ["z", 3], "expected": "v^3 + 9*u*v^2 + 9*u^2*v + u^3", "actual": "v^3 + 9*u*v^2 + 9*u^2*v + 2*u^3"}


def test_a_doctored_type_b_factor_fails_the_type_b_check(monkeypatch):
    # 1 + 4b + b^2 and its conjugate: the division by 4^n stays exact and the
    # odd powers of b cancel, so only the values are wrong
    monkeypatch.setattr(cf, "TYPEB_FACTORS", ((1, 4, 1), (1, -4, 1)))
    report = cf.gf_identity_check("typeB-gf", 6)
    assert report.first_discrepancy == {"location": ["x", 2], "expected": "1 + 4*y + y^2", "actual": "1 + 10*y + y^2"}
    # two equal factors leave odd powers of b, which no row in y can hold
    monkeypatch.setattr(cf, "TYPEB_FACTORS", ((1, 2, 1), (1, 2, 1)))
    with pytest.raises(AssertionError, match="odd powers of b"):
        cf.gf_identity_check("typeB-gf", 6)


def test_type_d_row_values():
    assert cf.type_d_row(0) == LaurentPolynomial.constant(1)
    assert cf.type_d_row(1) == U + V
    assert cf.type_d_row(2) == U ** 2 + 2 * U * V + V ** 2


def test_failure_is_reported_not_raised():
    # a deliberately wrong comparison stream produces a structured failure
    report = run_comparisons("demo", {}, [(("z", 0), LaurentPolynomial.constant(1), U)])
    assert report.status == "fail"
    assert report.first_discrepancy == {"location": ["z", 0], "expected": "1", "actual": "u"}


# -- catalog ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", cf.catalog_names())
def test_catalog_passes(key):
    report = cf.catalog_check(key, 6)
    assert report.passed, (key, report.first_discrepancy)


def test_catalog_hermitian_moments_are_catalan():
    report = cf.catalog_check("hermitian/one", 12)
    assert report.passed
    # 25 w-coefficients checked: both the Catalan values and the vanishing odd moments
    assert report.checked_count == 25


def test_catalog_wk_double_factorial_identity():
    # (2n+1)!!/(n+2)! = C_{n+1} / 2^{n+1}
    for n in range(11):
        lhs = Fraction(cf.odd_double_factorial(n), cf.factorial(n + 2))
        rhs = cf.catalan(n + 1) / 2 ** (n + 1)
        assert lhs == rhs


def test_dessin_three_checks_the_virasoro_relations():
    """1 fixture, 16 rows of G03(1,a,b) = s(a+b) G02(a,b) and 12 rows of the
    second relation at order 12."""
    report = cf.catalog_check("dessin/three", 12)
    assert report.passed and report.checked_count == 29


@pytest.mark.parametrize("key,location", [((1, 2, 3), ["p1", 2, 3]), ((2, 2, 3), ["p2", 2, 3])])
def test_a_doctored_g03_fails_the_dessin_three_check(key, location, monkeypatch):
    closed = cf.dessin_closed_series

    def doctored(which, order):
        out = closed(which, order)
        if which == "G03":
            vec = out.vector(key)  # still s^|A| u v times a polynomial of the right degree
            out.set_coefficient(key, vec[:1] + (vec[1] + 1,) + vec[2:])
        return out

    monkeypatch.setattr(cf, "dessin_closed_series", doctored)
    report = cf.catalog_check("dessin/three", 12)
    assert not report.passed
    assert report.first_discrepancy["location"] == location


def test_catalog_rejects_unknown_key():
    with pytest.raises(KeyError):
        cf.catalog_check("wk/three", 6)
