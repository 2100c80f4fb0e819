import hashlib
import json
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import comb
from pathlib import Path

import pytest

from dessin.eo import (
    BERGMAN_DOUBLE,
    BERGMAN_PAIR,
    BETA,
    KAPPA_SHIFT,
    NO_PAIR,
    EOEngine,
    EOForm,
    EOInvariantError,
    W03_DISPLAY,
    W11_DISPLAY,
    _halved_table,
    _kappa_table,
    _residue_table,
    bergman_kernel,
    slot_names,
    spectral_curve,
)
from dessin.laurent import LaurentPolynomial
from dessin.npoint import index_tuples
from dessin.series import TruncatedSeries

A = LaurentPolynomial.variable("a")
B = LaurentPolynomial.variable("b")
S = LaurentPolynomial.variable("s")

# 1 / (2 (alpha - beta)^2) = 1 / (32 a^2 b^2)
HALF_INV_GAP2 = LaurentPolynomial.monomial(Fraction(1, 32), {"a": -2, "b": -2})

STABLE_RANGE = [(g, n) for g in range(3) for n in range(1, 7) if 0 < 2 * g - 2 + n <= 4]
FORM_DIGESTS = Path(__file__).parent / "data" / "eo_forms.json"
# the forms that file pins, under each chart
PINNED_CASES = [(g, n) for g in range(4) for n in range(1, 8) if 0 < 2 * g - 2 + n <= 5]
# and three deeper forms, 2g-2+n = 6
DEEP_CASES = PINNED_CASES + [(3, 3), (4, 2), (5, 1)]


@pytest.fixture(scope="module")
def eo_dual():
    return EOEngine(dual=True)


def gap2_inverse(scale):
    # 1 / (scale * (alpha - beta)^2) with (alpha - beta)^2 = 16 a^2 b^2
    return LaurentPolynomial.monomial(Fraction(1, 16 * scale), {"a": -2, "b": -2})


def test_curve_data():
    curve = spectral_curve()
    assert curve.alpha == (A - B) ** 2
    assert curve.beta == (A + B) ** 2
    # alpha beta = (u - v)^2 and alpha + beta = 2(u + v) under u = a^2, v = b^2
    assert curve.alpha * curve.beta == (A ** 2 - B ** 2) ** 2
    assert curve.alpha + curve.beta == 2 * (A ** 2 + B ** 2)


def test_curve_identity_both_charts(eo):
    report = eo.curve_identity_report(20)
    assert report.passed, report.first_discrepancy


def test_involution_parity(eo):
    # x(z) is even and y(z) x(z) is odd, so sigma(z) = -z fixes x and negates y
    zsq = eo.z_square_series(6)
    assert zsq.min_exp == 0  # even data expressed through z^2 only
    kernel0 = eo.recursion_kernel_expansion("zero", 8)
    assert all(k % 2 == 1 for k, _ in kernel0.items())


def test_w03_matches_display(eo):
    assert eo.omega(0, 3).poly == W03_DISPLAY


def test_w11_matches_display(eo):
    assert eo.omega(1, 1).poly == W11_DISPLAY


def test_displays_are_the_displayed_formulas():
    """The integer rows over 16 a^2 b^2 and 128 a^2 b^2 are the displayed formulas in alpha and beta."""
    alpha, beta = (A - B) ** 2, (A + B) ** 2
    z1, z2, z3 = (LaurentPolynomial.variable(name) for name in slot_names(3))
    assert W03_DISPLAY == (beta * z1 ** -2 * z2 ** -2 * z3 ** -2 - alpha) * gap2_inverse(1)
    assert W11_DISPLAY == gap2_inverse(8) * (
        beta * z1 ** -4 - (2 * beta + alpha) * z1 ** -2 + (2 * alpha + beta) - alpha * z1 ** 2)


def _over_gap(table, chi, names):
    """The sum over {(j, *exps): c} of c alpha^(chi-j) beta^j / (alpha - beta)^(2 chi) times the monomial
    of exps in names, with the global alpha = (a - b)^2 and beta = (a + b)^2."""
    alpha, beta = (A - B) ** 2, (A + B) ** 2
    return sum((LaurentPolynomial.monomial(c, dict(zip(names, exps))) * alpha ** (chi - j) * beta ** j
                for (j, *exps), c in table.items()), LaurentPolynomial.zero()) * gap2_inverse(1) ** chi


@pytest.mark.parametrize("dual", [False, True])
def test_kappa_table_is_the_kernel_numerator_over_the_gap(dual):
    """The kappa table is 2^KAPPA_SHIFT (alpha z^2 - beta)(z^2 - 1)^2 / (2 (alpha - beta)^2), one
    integer triple (j, e_z, c) per monomial c alpha^(1-j) beta^j z^e_z of the numerator; the dual chart
    swaps alpha and beta, so j stays the power of the global beta."""
    alpha, beta = (A - B) ** 2, (A + B) ** 2
    if dual:
        alpha, beta = beta, alpha
    z = LaurentPolynomial.variable("z")
    kappa = (alpha * z ** 2 - beta) * (z ** 2 - 1) ** 2 * HALF_INV_GAP2 * (1 << KAPPA_SHIFT)
    table = _kappa_table(dual)
    assert len({(j, ez) for j, ez, _ in table}) == len(table) == 6
    assert all(type(c) is int and j in (0, 1) for j, _, c in table)
    assert _over_gap({(j, ez): c for j, ez, c in table}, 1, "z") == kappa


def test_unstable_forms_rejected(monkeypatch):
    # a fresh engine that may not recurse: each input is rejected up front
    engine = EOEngine()

    def no_recursion(g, n):
        raise AssertionError(f"omega recursed into ({g},{n}) before rejecting its input")

    monkeypatch.setattr(engine, "omega", no_recursion)  # the recursion reads lower forms through self.omega
    for g, n in [(0, 1), (0, 2), (0, 10), (1, 10)]:
        with pytest.raises(ValueError):
            EOEngine.omega(engine, g, n)


def test_negative_genus_rejected(eo):
    # 2g-2+n > 0 holds for (-1, 5), so the stability check alone lets it through
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        eo.omega(-1, 5)


def test_kernel_chart_zero_leading_residue(eo):
    # the z^{-1} coefficient of the kernel alone is -beta/(2 (alpha-beta)^2 z0^2)
    k0 = eo.recursion_kernel_expansion("zero", 6)
    expected = -BETA * gap2_inverse(2) * LaurentPolynomial.monomial(1, {"z0": -2})
    assert k0.coefficient(-1) == expected


def test_kernel_infinity_chart_simple_pole(eo):
    ki = eo.recursion_kernel_expansion("infinity", 6)
    assert ki.min_exp == -1
    assert not ki.coefficient(-1).is_zero()


@pytest.mark.parametrize("at", ["zero", "infinity"])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_kernel_small_bounds_truncate_the_wide_kernel(eo, at, bound):
    narrow = eo.recursion_kernel_expansion(at, bound)
    assert narrow == eo.recursion_kernel_expansion(at, 8).truncated(bound + 1)


@pytest.mark.parametrize("bound", [0, 3, 8])
def test_kernel_infinity_is_dual_zero_chart(eo, bound):
    ki = eo.recursion_kernel_expansion("infinity", bound)
    kz = EOEngine(dual=True).recursion_kernel_expansion("zero", bound)
    wt0 = LaurentPolynomial.variable("wt0")
    assert (ki.min_exp, ki.order) == (kz.min_exp, kz.order)
    for k in range(kz.min_exp, kz.order + 1):
        assert ki.coefficient(k) == kz.coefficient(k).substitute({"z0": wt0}), k


def test_kernel_rejects_bad_arguments(eo):
    with pytest.raises(ValueError):
        eo.recursion_kernel_expansion("nowhere", 4)
    with pytest.raises(ValueError):
        eo.recursion_kernel_expansion("zero", -1)


def test_bergman_kernel_designated_object():
    assert str(bergman_kernel()) == "dz1 dz2 / (z1 - z2)^2"


@pytest.mark.parametrize("g,n", STABLE_RANGE)
def test_forms_even_symmetric_s_free(eo, g, n):
    form = eo.omega(g, n)
    form.check_invariants()  # orbit representatives; evenness and slot symmetry hold by the key's shape
    assert "s" not in form.poly.alphabet


def test_invariant_violation_is_hard_error():
    """What the orbit key cannot express: an odd slot exponent never becomes a
    key entry, and each key (j, h_1, .., h_n) is its orbit's sorted representative."""
    assert _halved_table(-5, BERGMAN_PAIR) == tuple(
        (e0 // 2, (w // 2,), t) for e0, (w,), t in _residue_table(-5, BERGMAN_PAIR))
    # two Bergman factors with odd powers of w, (2 z w1^-3)(-2 z w2^-3) at z = 0, are no form's terms
    assert any(e % 2 for _, ws, _ in _residue_table(-3, BERGMAN_DOUBLE) for e in ws)
    with pytest.raises(EOInvariantError, match="odd slot exponent"):
        _halved_table(-3, BERGMAN_DOUBLE)
    with pytest.raises(EOInvariantError, match="not an orbit representative"):
        EOForm(0, 3, {(0, 0, -1, -1): 1}, 0).check_invariants()  # keyed as z1^0 (z2 z3)^-2: not sorted


@pytest.mark.parametrize("key", [(-1, 0, 0, 0), (2, 0, 0, 0), (0, -2, 0, 0), (1, -1, -1, 1)])
def test_key_outside_its_ranges_is_hard_error(key):
    """w_{0,3} has chi = 1, so j lies in [0, 1], and its halved slot exponents lie in [-1, 0]:
    each key above is sorted but leaves one of the two ranges."""
    EOForm(0, 3, {(0, 0, 0, 0): -1, (1, -1, -1, -1): 1}, 0).check_invariants()
    with pytest.raises(EOInvariantError, match=r"in \[0, 1\] x \[-1, 0\]\^n"):
        EOForm(0, 3, {(0, 0, 0, 0): -1, key: 1}, 0).check_invariants()


def test_inhomogeneous_form_is_hard_error():
    """A key holds only the power j of beta, that of alpha being chi - j, so every monomial of a form
    is homogeneous of degree chi = 2g-2+n in (alpha, beta) over (alpha - beta)^(2 chi), and of (a, b)-degree
    -2 chi; a key that carries its own power of alpha, as an inhomogeneous form would need, is not an
    orbit representative."""
    form = EOForm(0, 3, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}, 0)
    form.check_invariants()
    assert {exps[0] + exps[1] for exps, _ in form.poly.terms()} == {-2}
    with pytest.raises(EOInvariantError, match="not an orbit representative"):
        EOForm(0, 3, {(1, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 1}, 0).check_invariants()


def test_kappa_is_built_once_per_chart():
    assert EOEngine()._kappa is EOEngine()._kappa
    assert EOEngine(dual=True)._kappa is EOEngine(dual=True)._kappa
    assert EOEngine()._kappa != EOEngine(dual=True)._kappa


@pytest.mark.parametrize("dual", [False, True])
def test_printed_forms_match_the_pinned_digests(eo, eo_dual, dual):
    """Every stable form with 2g-2+n <= 5 prints the bytes pinned in tests/data/eo_forms.json."""
    engine = eo_dual if dual else eo
    pinned = json.loads(FORM_DIGESTS.read_text())
    side = "dual" if dual else "plain"
    assert sorted(key for key in pinned if key.startswith(side)) == sorted(
        f"{side} g={g} n={n}" for g, n in PINNED_CASES)
    for g, n in PINNED_CASES:
        text = json.dumps(engine.omega(g, n).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[f"{side} g={g} n={n}"], (g, n)


@pytest.mark.parametrize("g,n", [(1, 1), (0, 3), (2, 2), (0, 6)])
def test_json_text_matches_the_indenting_encoder(eo, g, n):
    form = eo.omega(g, n)
    assert "".join(form.json_chunks()) == json.dumps(form.to_json(), indent=2)


@pytest.mark.parametrize("g,n", [(0, 3), (1, 2), (0, 5)])
def test_json_chunks_join_to_the_indenting_encoder(eo, g, n):
    """dessin eo writes one chunk per (e_a, e_1) block of the sorted terms, between the head and the tail."""
    form = eo.omega(g, n)
    chunks = list(form.json_chunks())
    assert "".join(chunks) == json.dumps(form.to_json(), indent=2)
    blocks = list(form.sorted_blocks())
    assert len(chunks) == len(blocks) + 2 > 3
    assert [len({term[:3] for term in block}) for block in blocks] == [1] * len(blocks)
    assert [term for block in blocks for term in block] == sorted(term for block in blocks for term in block)


def _monomials(form):
    """Every monomial of the form: ({(e_a, e_1, .., e_n): c}, shift), coefficients c / 2^shift."""
    return {(key[0],) + tuple(2 * h for h in hs): c
            for key, c in form.terms.items() for hs in set(permutations(key[1:]))}, form.shift


def _summed(parts):
    """Dyadic parts ({key: c}, shift) summed over the largest shift."""
    wide = max(shift for _, shift in parts)
    out = defaultdict(int)
    for terms, shift in parts:
        for key, c in terms.items():
            out[key] += c << (wide - shift)
    return out, wide


def _as_fractions(terms, shift):
    return {key: Fraction(c, 1 << shift) for key, c in terms.items() if c}


def _rederived(engine, g, n):
    """The residue step for w_{g,n} on whole monomials, every slot order kept,
    from the engine's lower forms: {(e_a, e_1, .., e_n): coefficient}."""
    parts = []  # the integrand F(z, z2..zn) as dyadic parts keyed (e_a, e_z, e_2, .., e_n)
    if g >= 1 and (g - 1, n + 1) == (0, 2):
        parts.append(({(0, -2): 1}, 2))  # w_{0,2}(z, -z) = 1/(4 z^2)
    elif g >= 1:
        terms, shift = _monomials(engine.omega(g - 1, n + 1))
        diagonal = defaultdict(int)
        for (ea, x, y, *rest), c in terms.items():
            diagonal[(ea, x + y, *rest)] += c
        parts.append((diagonal, shift))
    for g1 in range(g + 1):
        for r in range(n):
            for left in combinations(range(n - 1), r):
                right = [q for q in range(n - 1) if q not in left]
                if 2 * g1 - 1 + r <= 0 or 2 * (g - g1) - 1 + len(right) <= 0:
                    continue
                (t1, s1), (t2, s2) = _monomials(engine.omega(g1, r + 1)), _monomials(engine.omega(g - g1, n - r))
                product = defaultdict(int)
                for (ea1, x, *a), c1 in t1.items():
                    for (ea2, y, *b), c2 in t2.items():
                        key = [ea1 + ea2, x + y] + [0] * (n - 1)
                        for q, e in [*zip(left, a), *zip(right, b)]:
                            key[2 + q] = e
                        product[tuple(key)] += c1 * c2
                parts.append((product, s1 + s2))

    def residues(terms, shift, signs, place):
        out = defaultdict(int)
        for (ea, ez, *spectators), c in terms.items():
            for ka, kz, k in engine._kappa:
                for e0, ws, t in _residue_table(ez + kz - 1, signs):
                    for key in place(ea + ka, e0, ws, spectators):
                        out[key] -= c * k * t
        return out, shift + KAPPA_SHIFT

    outputs = [residues(*_summed(parts), NO_PAIR, lambda ea, e0, ws, spectators: [(ea, e0, *spectators)])]
    if (g, n) == (0, 3):
        outputs.append(residues({(0, 0): 1}, 0, BERGMAN_DOUBLE, lambda ea, e0, ws, spectators: [(ea, e0, *ws)]))
    elif n > 1 and 2 * g - 3 + n > 0:
        outputs.append(residues(*_monomials(engine.omega(g, n - 1)), BERGMAN_PAIR, lambda ea, e0, ws, spectators: [
            (ea, e0, *spectators[:q], *ws, *spectators[q:]) for q in range(n - 1)]))
    return _as_fractions(*_summed(outputs))


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("g,n", [(0, 5), (0, 6), (1, 3), (2, 2)])
def test_symmetry_holds_off_the_orbit_representatives(g, n, dual):
    """The engine computes w_{g,n} only where z1 has the smallest exponent of
    its orbit.  Taken on whole monomials, the residue step gives each other
    slot order the same coefficient as its orbit's representative."""
    engine = EOEngine(dual=dual)
    rederived = _rederived(engine, g, n)
    assert any(key[1] > min(key[2:]) for key in rederived)
    assert rederived == _as_fractions(*_monomials(engine.omega(g, n)))


def test_published_forms_keep_only_the_dyadic_form():
    """Computing and checking forms never builds their polynomial; printing does, with the
    terms of the JSON layout, for every pinned form under both charts."""
    engine = EOEngine()
    assert engine.verify_main_theorem(0, 6, 12).passed
    assert len(engine._forms) > 1
    assert all("poly" not in form.__dict__ for form in engine._forms.values())
    form = engine.omega(1, 1)
    assert form.to_json()["form"] == form.poly.to_json(("a", "b", "z1"))
    assert "poly" in form.__dict__
    for chart in (EOEngine(), EOEngine(dual=True)):
        for g, n in PINNED_CASES:
            form = chart.omega(g, n)
            assert form.to_json()["form"] == form.poly.to_json(("a", "b", *slot_names(n))), (chart.dual, g, n)


@pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (0, 5), (1, 3), (2, 2)])
def test_chart_consistency(eo, g, n):
    """Recomputing with the two residue charts swapped gives the same form
    with alpha <-> beta and z_i <-> 1/z_i."""
    dual = EOEngine(dual=True)
    names = slot_names(n)
    w = eo.omega(g, n).poly
    w_dual = dual.omega(g, n).poly
    flipped = w_dual.substitute({nm: LaurentPolynomial.monomial(1, {nm: -1}) for nm in names})
    scale = LaurentPolynomial.monomial((-1) ** n, {nm: -2 for nm in names})
    assert w == scale * flipped


@pytest.mark.parametrize("g,n", DEEP_CASES)
def test_chart_map_on_the_keys(eo, eo_dual, g, n):
    """The dual engine's form is the primary's under z_i -> 1/z_i, key for key: (j, h) -> (j, sorted(-h_i - 1))
    with sign (-1)^n, over the same power of two; j is the power of the global beta in both charts."""
    form, dual = eo.omega(g, n), eo_dual.omega(g, n)
    assert dual.shift == form.shift
    assert dual.terms == {(j, *sorted(-h - 1 for h in hs)): (-1) ** n * c for (j, *hs), c in form.terms.items()}


def test_z_of_x_leading_terms(eo):
    zx = eo.z_of_x_series(5)
    assert zx.coefficient(0) == LaurentPolynomial.constant(1)
    assert zx.coefficient(1) == -2 * A * B * S
    # z^2 z^{-2} = 1 through the window
    prod = eo.z_square_series(6) * eo.z_square_series(6).invert()
    assert prod.matches(eo.z_square_series(6).invert() * eo.z_square_series(6))


def test_to_x_series_leading_coefficients(eo):
    U, V = LaurentPolynomial.variable("u"), LaurentPolynomial.variable("v")
    g11 = eo.to_x_series(1, 1, 8)
    assert g11.coefficient((3,)) == U * V * S ** 3
    g03 = eo.to_x_series(0, 3, 9)
    assert g03.coefficient((1, 1, 1)) == 2 * S ** 3 * U * V


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1)])
def test_main_theorem_small(eo, vir, g, n):
    report = eo.verify_main_theorem(g, n, 9, vir)
    assert report.passed, report.first_discrepancy


@pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (1, 2), (1, 3), (2, 1)])
def test_main_theorem_no_printed_values(eo, vir, g, n):
    """Both engines run independently where nothing is printed to copy."""
    report = eo.verify_main_theorem(g, n, 10, vir)
    assert report.passed, report.first_discrepancy


@pytest.mark.parametrize("g,n", [(3, 1), (2, 2)])
def test_main_theorem_deeper(eo, vir, g, n):
    report = eo.verify_main_theorem(g, n, 12, vir)
    assert report.passed, report.first_discrepancy


@pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (2, 3), (1, 5)])
def test_main_theorem_order_twelve(eo, vir, g, n):
    """2g-2+n <= 5 at order 12; (0,7) is absent because a 7-slot tuple needs order >= 14."""
    report = eo.verify_main_theorem(g, n, 12, vir)
    assert report.passed, report.first_discrepancy


@pytest.mark.parametrize("g,n,order,dual", [
    (0, 6, 14, False), (2, 3, 14, False), (3, 1, 20, False), (3, 2, 16, False), (1, 2, 16, True),
    (0, 7, 14, False), (1, 6, 14, False), (2, 4, 14, False)])
def test_main_theorem_deep_orders(eo, eo_dual, vir, g, n, order, dual):
    report = (eo_dual if dual else eo).verify_main_theorem(g, n, order, vir)
    assert report.passed, report.first_discrepancy


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("g,n", [(4, 2), (5, 1)])
def test_main_theorem_at_genus_four_and_five(eo, eo_dual, vir, g, n, dual):
    """Order 12 reaches nonzero coefficients: |A| = 10 for (4,2) and a = 11 for (5,1)."""
    report = (eo_dual if dual else eo).verify_main_theorem(g, n, 12, vir)
    assert report.passed, report.first_discrepancy
    series = vir.npoint_series(g, n, 12)
    assert {sum(key) for key in index_tuples(n, 12) if not series.coefficient(key).is_zero()} == {12 - n}


@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (1, 2), (2, 1)])
def test_main_theorem_dual_chart(eo_dual, vir, g, n):
    """The dual engine's forms reach the same x-picture series."""
    report = eo_dual.verify_main_theorem(g, n, 10, vir)
    assert report.passed, report.first_discrepancy


@lru_cache(maxsize=None)
def _alpha_beta(p, q):
    """alpha^p beta^q over (a, b)."""
    return (A - B) ** (2 * p) * (A + B) ** (2 * q)


@pytest.mark.parametrize("dual", [False, True])
def test_slot_series_closed_form_matches_square_root_route(dual):
    """The integer slot table holds z^{2e} dz/dx = z_square_series^e * (-t^2 d/dt z_of_x_series),
    row k - 1 over alpha^(k-i) beta^i with the global alpha and beta in both charts."""
    engine = EOEngine(dual=dual)
    order = 12
    z2 = engine.z_square_series(order)
    jac = -engine.z_of_x_series(order + 1).differentiate().shift(2)
    for e in range(-8, 9):
        base = z2 if e >= 0 else z2.invert()
        expected = jac
        for _ in range(abs(e)):
            expected = expected * base
        assert expected.order == order + 2
        # row k - 1 is 2 4^(k-1) / s^k times the t^(k+1) coefficient, entry i at alpha^(k-i) beta^i
        table = [LaurentPolynomial.zero()] * 2 + [
            S ** k * sum((Fraction(c, 2 * 4 ** (k - 1)) * _alpha_beta(k - i, i) for i, c in enumerate(row)),
                         LaurentPolynomial.zero())
            for k, row in enumerate(islice(engine._slot_rows(e), order + 1), 1)]
        assert [expected.coefficient(j) for j in range(order + 3)] == table, e


def _pair_series(signs, variable, order, term):
    """sum over sigma in signs of prod_r 1/(z - sigma_r w_r)^2, from term(p, sigma_r, w_r)."""
    total = TruncatedSeries.zero(variable, order)
    for sigma in signs:
        factor = TruncatedSeries.one(variable, order)
        for r, sign in enumerate(sigma):
            terms = (term(p, sign, f"w{r + 1}") for p in range(order + 1))
            factor = factor * TruncatedSeries.from_map(variable, {k: c for k, c in terms if k <= order}, order)
        total = total + factor
    return total


@pytest.mark.parametrize("dual", [False, True])
def test_residue_contraction_matches_series_residues(dual):
    """The closed-form residues of K-hat(z0, z) z^j dz, bare or times the
    Bergman pair factors, equal Res_{z->0} + Res_{z->infinity} read off
    TruncatedSeries expansions at both charts."""
    engine = EOEngine(dual=dual)
    kernel_inf = (engine.alpha - engine.beta * LaurentPolynomial.variable("wt") ** 2) * (
        1 - LaurentPolynomial.variable("wt") ** 2) ** 2
    for signs in (NO_PAIR, BERGMAN_PAIR, BERGMAN_DOUBLE):
        m = len(signs[0])
        for j in range(-12, 13):
            order = abs(j) + 5
            # z = 0: 1/(z - sigma w)^2 = sum_p (p+1) sigma^p z^p w^(-p-2)
            at_zero = engine._kernel_chart_zero("z0", order).shift(j) * _pair_series(
                signs, "z", order,
                lambda p, sign, w: (p, (p + 1) * LaurentPolynomial.monomial(sign ** p, {w: -p - 2})))
            # z = 1/wt, dz = -dwt/wt^2: K-hat dz = kernel_inf(wt) sum_k z0^2k wt^(2k-5) dwt / (32 a^2 b^2)
            geom = TruncatedSeries.from_map(
                "wt", {2 * k: LaurentPolynomial.monomial(1, {"z0": 2 * k}) for k in range(order // 2 + 1)}, order)
            k_inf = (TruncatedSeries.from_polynomial(kernel_inf, "wt", order + 5) * geom).shift(-5) * HALF_INV_GAP2
            at_inf = k_inf.shift(-j) * _pair_series(
                signs, "wt", order,
                lambda p, sign, w: (p + 2, (p + 1) * LaurentPolynomial.monomial(sign ** p, {w: p})))
            expected = at_zero.coefficient(-1) + at_inf.coefficient(-1)

            # kappa(z) z^(j-1) contracted against the closed-form table; kappa's triples are (kj, e_z, c)
            terms = defaultdict(int)
            for kj, kz, k in engine._kappa:
                for e0, ws, t in _residue_table(j + kz - 1, signs):
                    terms[(kj, e0) + ws] += Fraction(k * t, 1 << KAPPA_SHIFT)
            got = _over_gap(terms, 1, ("z0", "w1", "w2")[: 1 + m])
            assert got == expected, (signs, j)


def test_x_picture_edge_rejects_odd_powers_and_non_integers():
    """The contraction ends in a polynomial in u = a^2, v = b^2 with integer
    coefficients, homogeneous of the tuple's degree; a doctored form that
    breaks any of these is a hard error.  In j keys no w_{0,3} reaches the degree
    check: at every tuple its three slot rows bring (beta - alpha)^3, which leaves
    a polynomial in (a, b) of the tuple's degree, so the third case doctors w_{3,1}."""
    U, V = LaurentPolynomial.variable("u"), LaurentPolynomial.variable("v")
    engine = EOEngine()
    form = engine.omega(0, 3)
    terms, shift = form.terms, form.shift
    assert engine.to_x_series(0, 3, 6).coefficient((1, 1, 1)) == 2 * S ** 3 * U * V
    assert EOEngine().to_x_series(3, 1, 10).coefficient((1,)) == LaurentPolynomial.zero()
    # alpha (beta - alpha)^3 / (alpha - beta)^2 = 4 a b (a - b)^2 at (1, 1, 1): integral, odd powers
    odd = dict(terms)
    odd[(0, 0, 0, 0)] += 1 << (shift + 8)
    # at k = 1 every slot row of w_{3,1} is (beta - alpha), so adding (alpha - beta)^5 c adds
    # -c / (alpha - beta)^4 = -c / (256 u^2 v^2) at (1,): even and integral, but (1,) has degree -4
    deep = EOEngine().omega(3, 1)
    low = dict(deep.terms)
    for j in range(6):
        low[(j, 0)] = low.get((j, 0), 0) + ((-1) ** j * comb(5, j) << (deep.shift + 40))
    for g, n, doctored, where in (
            (0, 3, (odd, shift), r"\(1, 1, 1\)"),
            (0, 3, (terms, shift + 2), r"\(1, 1, 1\)"),  # s^3 u v / 2 is not integral
            (3, 1, (low, deep.shift), r"\(1,\) .* degree -4")):
        engine._forms[(g, n)] = EOForm(g, n, *doctored)
        with pytest.raises(EOInvariantError, match=where):
            engine.to_x_series(g, n, 6 if n == 3 else 10)


def test_to_x_series_rejects_orders_without_tuples(eo):
    with pytest.raises(ValueError, match="cannot hold any 3-point tuple"):
        eo.to_x_series(0, 3, 5)


def test_to_x_series_is_symmetric(eo):
    series = eo.to_x_series(0, 4, 10)
    assert series.coefficient((1, 1, 1, 2)) == series.coefficient((2, 1, 1, 1))


def test_eoform_json_alphabet(eo):
    blob = eo.omega(1, 1).to_json()
    assert blob["form"]["alphabet"] == ["a", "b", "z1"]
    assert blob["g"] == 1 and blob["n"] == 1
    round_tripped = LaurentPolynomial.from_json(blob["form"])
    assert round_tripped == eo.omega(1, 1).poly
