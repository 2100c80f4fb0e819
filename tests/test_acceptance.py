"""Acceptance gate: every criterion at its stated bound, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from dessin import airy, closedforms as cf
from dessin.eo import W03_DISPLAY, W11_DISPLAY, EOEngine, slot_names
from dessin.laurent import LaurentPolynomial
from dessin.npoint import as_polynomial
from dessin.series import TruncatedSeries, series_invert, series_sqrt
from dessin.virasoro import VirasoroEngine

S, U, V = (LaurentPolynomial.variable(name) for name in ("s", "u", "v"))


@contextmanager
def criterion(num, description, limit_s):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL {description}")
        raise
    elapsed = perf_counter() - t0
    in_time = elapsed < limit_s
    verdict = "PASS" if in_time else "FAIL (over time)"
    print(f"[criterion {num:>2}] {verdict} {description} ({elapsed:.2f}s / {limit_s}s)")
    assert in_time, f"criterion {num} took {elapsed:.2f}s, limit {limit_s}s"


def partitions_up_to(total):
    def rec(rem, lo):
        if rem == 0:
            yield ()
        for a in range(lo, rem + 1):
            for rest in rec(rem - a, a):
                yield (a,) + rest

    for t in range(1, total + 1):
        yield from rec(t, 1)


def test_criterion_01_narayana_reproduction(vir):
    with criterion(1, "one-point correlators reproduce the displayed numerators", 1.0):
        for n, expected in cf.G01_NUMERATORS.items():
            assert vir.weighted_correlator(0, (n,)) == as_polynomial(n, expected), n


def test_criterion_02_narayana_law(vir):
    with criterion(2, "Narayana law for n <= 25 and Catalan collapse", 5.0):
        for n in range(1, 26):
            assert vir.weighted_correlator(0, (n,)) == cf.narayana_one_point_law(n), n
            assert sum(cf.narayana(n, k) for k in range(1, n + 1)) == cf.catalan(n), n


def test_criterion_03_two_point_equivalence(vir):
    with criterion(3, "two-point recursion equals the closed form at order 12", 30.0):
        closed = cf.dessin_closed_series("G02", 12)
        direct = vir.npoint_series(0, 2, 12)
        assert direct.first_difference(closed) is None


def test_criterion_04_fixture_forms(vir):
    with criterion(4, "three-point and genus-one fixtures at order 10", 30.0):
        assert vir.npoint_series(0, 3, 10).first_difference(cf.dessin_closed_series("G03", 10)) is None
        g11 = cf.dessin_closed_series("G11", 10)
        assert vir.npoint_series(1, 1, 10).first_difference(g11) is None
        # the corrected genus-one terms (the u v factor restored)
        for a, expected in cf.G11_NUMERATORS.items():
            assert g11.coefficient((a,)) == as_polynomial(a, expected), a


def test_criterion_05_eo_base_cases(eo):
    with criterion(5, "w(0,3) and w(1,1) equal the displayed Laurent forms", 1.0):
        assert eo.omega(0, 3).poly == W03_DISPLAY
        assert eo.omega(1, 1).poly == W11_DISPLAY


def test_criterion_06_main_theorem(vir, eo):
    with criterion(6, "topological recursion equals Virasoro at order 10, six cases", 300.0):
        for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]:
            report = eo.verify_main_theorem(g, n, 10, vir)
            assert report.passed, (g, n, report.first_discrepancy)


def test_criterion_07_kp_oracle(vir):
    with criterion(7, "all-genus one-point sums match the explicit formula, n <= 12", 10.0):
        for n in range(1, 13):
            assert vir.one_point_all_genus(n) == vir.kp_one_point(n), n


def test_criterion_08_operator_form(vir):
    with criterion(8, "operator-form assembly equals the recursion through order 8", 60.0):
        for g, n in [(0, 2), (1, 0), (1, 1)]:
            report = vir.operator_form_report(g, n, 8)
            assert report.passed, (g, n + 1, report.first_discrepancy)


def test_criterion_09_local_triangle_and_identities():
    with criterion(9, "T(n,k) rows and the three local kernel identities", 30.0):
        for n, expected in enumerate(airy.T_ROWS):
            assert [int(x) for x in airy.t_row(n).values] == expected, n
        for n in range(21):
            airy.t_row(n)  # positivity and integrality asserted inside
        for name in ("bergman-pp", "sqrt-product", "bergman-mixed"):
            assert airy.local_identity_check(name, 6).passed, name


def test_criterion_10_catalog():
    with criterion(10, "one- and two-point coefficient laws of the neighbouring theories", 30.0):
        assert cf.catalog_check("hermitian/one", 12).passed
        assert cf.catalog_check("wk/one", 8).passed
        assert cf.catalog_check("wk/two", 8).passed
        assert cf.catalog_check("even-coupling/one", 10).passed
        assert cf.catalog_check("even-coupling/two", 10).passed


def test_criterion_11_type_bcd_identities():
    with criterion(11, "type B/C and type D generating series at order 10", 10.0):
        assert cf.gf_identity_check("typeB-gf", 10).passed
        assert cf.gf_identity_check("typeD-gf", 10).passed


def test_criterion_12_property_suites(vir, eo):
    rng = random.Random(20260808)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(-5, 5) for _ in range(4))
            terms[exps] = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        return LaurentPolynomial(("w", "x", "y", "z"), terms)

    def random_unit_series():
        order = rng.randint(1, 6)
        coeffs = {0: LaurentPolynomial.constant(1)}
        for k in range(1, order + 1):
            coeffs[k] = Fraction(rng.randint(-8, 8), rng.randint(1, 6)) * U ** rng.randint(0, 2)
        return TruncatedSeries.from_map("t", coeffs, order)

    with criterion(12, "property suites: recursion, forms and exact algebra", 120.0):
        # recursion-strategy independence, sum <= 12, g <= 2
        largest = VirasoroEngine(strategy="largest")
        for parts in partitions_up_to(12):
            for g in range(3):
                assert vir.raw_correlator(g, parts) == largest.raw_correlator(g, parts), (g, parts)
        # grading laws, sum <= 14, g <= 3
        for parts in partitions_up_to(14):
            for g in range(4):
                value = vir.raw_correlator(g, parts)
                if value.is_zero():
                    continue
                total = sum(parts)
                assert value.valuation("s") == total and value.degree("s") == total
                assert value.valuation("u") >= 1 and value.valuation("v") >= 1
                assert value.total_degree(("u", "v")) == total - len(parts) + 2 - 2 * g
                assert value.substitute({"u": V, "v": U}) == value
        # vanishing bound
        for n in range(1, 15):
            for g in range(8):
                assert vir.raw_correlator(g, (n,)).is_zero() == (2 * g > n - 1)
        # form invariants over 2g - 2 + n <= 4, plus chart consistency
        for g in range(3):
            for n in range(1, 7):
                if 0 < 2 * g - 2 + n <= 4:
                    eo.omega(g, n).check_invariants()
        dual = EOEngine(dual=True)
        for g, n in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
            names = slot_names(n)
            flipped = dual.omega(g, n).poly.substitute(
                {nm: LaurentPolynomial.monomial(1, {nm: -1}) for nm in names}
            )
            scale = LaurentPolynomial.monomial((-1) ** n, {nm: -2 for nm in names})
            assert eo.omega(g, n).poly == scale * flipped, (g, n)
        # ring laws, 200 random cases
        for _ in range(200):
            p, q, r = random_poly(), random_poly(), random_poly()
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
        # series inverses and square roots, 200 random cases
        for _ in range(200):
            f = random_unit_series()
            assert (series_invert(f) * f).matches(TruncatedSeries.one("t", f.order))
            g = series_sqrt(f)
            assert (g * g).matches(f)
