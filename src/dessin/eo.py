"""Topological recursion on the dessin spectral curve in the global coordinate.

The curve y^2 = 1/(4s^2) - (u+v)/(2sx) + (u-v)^2/(4x^2) is rational, with
branch points over x = s(sqrt(u) +- sqrt(v))^2.  Writing a = sqrt(u),
b = sqrt(v), alpha = (a-b)^2, beta = (a+b)^2, the global coordinate z
satisfies

    x(z) = s (alpha z^2 - beta) / (z^2 - 1),
    y(z) = -(alpha - beta) z / (2 s (alpha z^2 - beta)),

with hyperelliptic involution z -> -z; z = 0 and z = infinity sit over the
two branch points.  The Bergman kernel is dz1 dz2 / (z1 - z2)^2 and the
recursion kernel is

    K(z0, z) = (alpha z^2 - beta)(z^2 - 1)^2 / (2 (alpha-beta)^2 z (z0^2 - z^2)) * dz0/dz,

with simple poles at z = 0 and (in the 1/z chart) at infinity.  Since
(alpha - beta)^2 = 16 a^2 b^2 is a monomial, every kernel denominator is
monomial and the whole recursion stays inside the Laurent ring.

Each differential w_{g,n} (2g-2+n > 0) comes out as a Laurent polynomial
in z_1..z_n, even in each variable, symmetric, and free of s.  Residues at
the two poles are taken by truncated Laurent expansion in the local chart
(z at 0; wt = 1/z at infinity, with the -1/wt^2 Jacobian of dz folded in),
never by partial fractions: the finite factors bound the window that can
feed the z^{-1} coefficient, so a sufficiently wide truncation is exact
and the series window discipline turns "not wide enough" into a retryable
error instead of a wrong answer.

Converting to the x-picture contracts w_{g,n}, one slot at a time, against
the t = 1/x series of z(x)^{2e} dz/dx (z_i^{2e} -> the x_i^{-a-1}
coefficient).  Since z dz = d(z^2)/2, that series is
-(s(alpha-beta)/2) t^2 (1 - s beta t)^(e-1/2) (1 - s alpha t)^(-e-3/2).
The form is symmetric, so only nondecreasing index prefixes are contracted,
each partial sum shared by every tuple extending it; the (necessarily
even) powers of a, b are then rewritten as u, v.  That series is what
gets compared, coefficient by coefficient, against the Virasoro engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .laurent import LaurentPolynomial, sum_polys
from .npoint import NPointSeries, index_tuples
from .report import VerificationReport, run_comparisons
from .series import SeriesWindowError, TruncatedSeries
from .virasoro import VirasoroEngine

A = LaurentPolynomial.variable("a")
B = LaurentPolynomial.variable("b")
S = LaurentPolynomial.variable("s")

ALPHA = (A - B) ** 2
BETA = (A + B) ** 2
# 1 / (2 (alpha - beta)^2) = 1 / (32 a^2 b^2)
HALF_INV_GAP2 = LaurentPolynomial.monomial(Fraction(1, 32), {"a": -2, "b": -2})

# the displayed base differentials w_{0,3} and w_{1,1}
W03_DISPLAY = (
    BETA * LaurentPolynomial.monomial(1, {"z1": -2, "z2": -2, "z3": -2}) - ALPHA
) * LaurentPolynomial.monomial(Fraction(1, 16), {"a": -2, "b": -2})
W11_DISPLAY = LaurentPolynomial.monomial(Fraction(1, 128), {"a": -2, "b": -2}) * (
    BETA * LaurentPolynomial.monomial(1, {"z1": -4})
    - (2 * BETA + ALPHA) * LaurentPolynomial.monomial(1, {"z1": -2})
    + (2 * ALPHA + BETA)
    - ALPHA * LaurentPolynomial.variable("z1") ** 2
)


class EOInvariantError(AssertionError):
    """A computed differential violated evenness, symmetry or s-freeness."""


@dataclass(frozen=True)
class SpectralCurveData:
    """x and y as rational expressions (numerator, denominator) in z over a, b, s."""

    alpha: LaurentPolynomial
    beta: LaurentPolynomial
    x_num: LaurentPolynomial
    x_den: LaurentPolynomial
    y_num: LaurentPolynomial
    y_den: LaurentPolynomial


def spectral_curve() -> SpectralCurveData:
    z = LaurentPolynomial.variable("z")
    return SpectralCurveData(
        alpha=ALPHA,
        beta=BETA,
        x_num=S * (ALPHA * z ** 2 - BETA),
        x_den=z ** 2 - 1,
        y_num=-(ALPHA - BETA) * z,
        y_den=2 * S * (ALPHA * z ** 2 - BETA),
    )


@dataclass(frozen=True)
class BergmanKernel:
    """The canonical symmetric bidifferential dz1 dz2 / (z1 - z2)^2."""

    def __str__(self):
        return "dz1 dz2 / (z1 - z2)^2"


def bergman_kernel() -> BergmanKernel:
    return BergmanKernel()


def slot_names(n: int) -> Tuple[str, ...]:
    if n > 9:
        raise ValueError("slot naming supports at most 9 variables")
    return tuple(f"z{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class EOForm:
    """w_{g,n}: the scalar of W_{g,n} = w_{g,n} dz_1 ... dz_n."""

    g: int
    n: int
    poly: LaurentPolynomial

    def evaluated(self, args: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
        """Substitute the slot variables z1..zn by the given monomials."""
        if len(args) != self.n:
            raise ValueError(f"form has {self.n} slots, got {len(args)} arguments")
        return self.poly.substitute(dict(zip(slot_names(self.n), args)))

    def check_invariants(self) -> None:
        names = slot_names(self.n)
        if "s" in self.poly.alphabet:
            raise EOInvariantError(f"w_{{{self.g},{self.n}}} mentions s")
        for name in names:
            if name in self.poly.alphabet:
                if any(e % 2 for e, _ in _exps_of(self.poly, name)):
                    raise EOInvariantError(f"w_{{{self.g},{self.n}}} has odd degree in {name}")
        for i in range(self.n - 1):
            swap = {
                names[i]: LaurentPolynomial.variable(names[i + 1]),
                names[i + 1]: LaurentPolynomial.variable(names[i]),
            }
            if self.poly.substitute(swap) != self.poly:
                raise EOInvariantError(
                    f"w_{{{self.g},{self.n}}} is not symmetric under {names[i]} <-> {names[i + 1]}"
                )

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "form": self.poly.to_json(("a", "b") + slot_names(self.n)),
        }


def _exps_of(poly: LaurentPolynomial, name: str):
    for e, c in poly.terms():
        idx = poly.alphabet.index(name)
        yield e[idx], c


# -- residue factor descriptors ------------------------------------------------

# ("poly", P): a Laurent polynomial factor, P in the residue symbol "z" plus spectators
# ("pair", sign, name): 1/(z - sign * z_name)^2


def _chart_zero_factor(desc, order: int) -> TruncatedSeries:
    kind = desc[0]
    if kind == "poly":
        return TruncatedSeries.from_polynomial(desc[1], "z", order)
    _, sign, name = desc
    coeffs = {
        k: (k + 1) * LaurentPolynomial.monomial(sign ** k, {name: -k - 2})
        for k in range(order + 1)
    }
    return TruncatedSeries.from_map("z", coeffs, order)


def _chart_inf_factor(desc, order: int) -> TruncatedSeries:
    kind = desc[0]
    if kind == "poly":
        flipped = desc[1].substitute({"z": LaurentPolynomial.monomial(1, {"wt": -1})})
        return TruncatedSeries.from_polynomial(flipped, "wt", order)
    _, sign, name = desc
    coeffs = {
        k + 2: (k + 1) * LaurentPolynomial.monomial(sign ** k, {name: k})
        for k in range(order - 1)
    }
    return TruncatedSeries.from_map("wt", coeffs, order)


class EOEngine:
    """Fills the w_{g,n} table in dependency order; immutable once published.

    ``dual=True`` swaps the roles of the two branch points (alpha <-> beta,
    z <-> 1/z), which is how chart consistency is tested.
    """

    def __init__(self, dual: bool = False):
        self.dual = dual
        self.alpha, self.beta = (BETA, ALPHA) if dual else (ALPHA, BETA)
        self._forms: Dict[Tuple[int, int], EOForm] = {}

    # -- kernel ------------------------------------------------------------

    def _kernel_poly(self) -> LaurentPolynomial:
        z = LaurentPolynomial.variable("z")
        return (self.alpha * z ** 2 - self.beta) * (z ** 2 - 1) ** 2

    def _kernel_chart_zero(self, out_name: str, order: int) -> TruncatedSeries:
        """K-hat expanded at z = 0 through z^(order-1): simple pole, spectator
        poles in out_name."""
        geom = TruncatedSeries.from_map(
            "z",
            {2 * k: LaurentPolynomial.monomial(1, {out_name: -2 * k - 2}) for k in range(order // 2 + 1)},
            order,
        )
        kernel = self._kernel_poly()
        # the kernel polynomial enters whole; the product keeps geom's window
        poly = TruncatedSeries.from_polynomial(kernel, "z", max(order, kernel.degree("z")))
        return (poly * geom).shift(-1) * HALF_INV_GAP2

    def _kernel_chart_inf(self, out_name: str, order: int) -> TruncatedSeries:
        """K-hat at z = 1/wt with the dz = -dwt/wt^2 Jacobian folded in."""
        wt = LaurentPolynomial.variable("wt")
        poly = (self.alpha - self.beta * wt ** 2) * (1 - wt ** 2) ** 2
        geom = TruncatedSeries.from_map(
            "wt",
            {2 * k: LaurentPolynomial.monomial(1, {out_name: 2 * k}) for k in range(order // 2 + 1)},
            order,
        )
        return (TruncatedSeries.from_polynomial(poly, "wt", order + 5) * geom).shift(-5) * HALF_INV_GAP2

    def recursion_kernel_expansion(self, at: str, pos_degree_bound: int) -> TruncatedSeries:
        """Kernel series wide enough that residues against integrands of
        positive local degree <= pos_degree_bound are exact.

        at="zero": series in z, spectator poles z0^{-2k-2}.
        at="infinity": the swapped-chart kernel display, series in wt with
        spectator wt0; it has a simple pole at wt = 0.
        """
        if pos_degree_bound < 0:
            raise ValueError("pos_degree_bound must be nonnegative")
        order = pos_degree_bound + 2
        if at == "zero":
            return self._kernel_chart_zero("z0", order)
        if at == "infinity":
            # swapping the charts is the dual curve's chart at zero, renamed
            dual = EOEngine(dual=not self.dual)._kernel_chart_zero("wt0", order)
            return TruncatedSeries.from_map("wt", dict(dual.items()), dual.order, min_exp=dual.min_exp)
        raise ValueError("chart must be 'zero' or 'infinity'")

    # -- the recursion -------------------------------------------------------

    def omega(self, g: int, n: int) -> EOForm:
        if n < 1:
            raise ValueError("free-energy invariants (n = 0) are out of scope")
        if 2 * g - 2 + n <= 0:
            raise ValueError(f"({g},{n}) is unstable; only 2g-2+n > 0 is computed")
        key = (g, n)
        if key in self._forms:
            return self._forms[key]

        names = slot_names(n)
        out_name, rest = names[0], list(names[1:])
        zvar = LaurentPolynomial.variable("z")
        products: List[List[tuple]] = []

        # recursion bracket, first kind: w_{g-1, n+1}(z, -z, rest) = w(z, z, rest)
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                products.append([("poly", LaurentPolynomial.monomial(Fraction(1, 4), {"z": -2}))])
            else:
                lower = self.omega(g - 1, n + 1)
                args = [zvar, zvar] + [LaurentPolynomial.variable(r) for r in rest]
                products.append([("poly", lower.evaluated(args))])

        # second kind: stable x stable factorizations
        for g1 in range(g + 1):
            g2 = g - g1
            for r in range(len(rest) + 1):
                for pick in combinations(range(len(rest)), r):
                    chosen = set(pick)
                    left = [rest[i] for i in pick]
                    right = [rest[i] for i in range(len(rest)) if i not in chosen]
                    n1, n2 = len(left) + 1, len(right) + 1
                    if 2 * g1 - 2 + n1 <= 0 or 2 * g2 - 2 + n2 <= 0:
                        continue
                    f1 = self.omega(g1, n1).evaluated([zvar] + [LaurentPolynomial.variable(x) for x in left])
                    f2 = self.omega(g2, n2).evaluated([zvar] + [LaurentPolynomial.variable(x) for x in right])
                    products.append([("poly", f1 * f2)])

        # third kind: Bergman pairings with the remaining slots
        if rest:
            if (g, n - 1) == (0, 2):
                # both factors are Bergman kernels (the first stable form)
                za, zb = rest
                products.append([("pair", 1, za), ("pair", -1, zb)])
                products.append([("pair", 1, zb), ("pair", -1, za)])
            elif 2 * g - 2 + (n - 1) > 0:
                for i, name in enumerate(rest):
                    others = [LaurentPolynomial.variable(x) for j, x in enumerate(rest) if j != i]
                    partner = self.omega(g, n - 1).evaluated([zvar] + others)
                    products.append([("pair", 1, name), ("poly", partner)])
                    products.append([("pair", -1, name), ("poly", partner)])

        total = LaurentPolynomial.zero()
        for factors in products:
            total = total - self._paired_residues(out_name, factors)

        form = EOForm(g, n, total)
        form.check_invariants()
        self._forms[key] = form
        return form

    def _paired_residues(self, out_name: str, factors: List[tuple]) -> LaurentPolynomial:
        """(Res_{z->0} + Res_{z->infinity}) of K-hat(out, z) * prod(factors) dz.

        Intermediate products are truncated to the window that can still
        feed the z^{-1} coefficient given the minimum exponents of the
        factors not yet multiplied in; everything beyond it is dead weight.
        """
        guess = 6
        for desc in factors:
            if desc[0] == "poly":
                poly = desc[1]
                lo = poly.valuation("z")
                hi = poly.degree("z")
                if lo is not None:
                    guess += max(0, -lo) + max(0, hi)
        for attempt in range(6):
            order = guess * (2 ** attempt)
            try:
                total = LaurentPolynomial.zero()
                for chart_factor, kernel in (
                    (_chart_zero_factor, self._kernel_chart_zero(out_name, order)),
                    (_chart_inf_factor, self._kernel_chart_inf(out_name, order)),
                ):
                    series = [chart_factor(desc, order) for desc in factors]
                    prod = kernel
                    for i, factor in enumerate(series):
                        needed = -1 - sum(s.min_exp for s in series[i + 1 :])
                        factor = factor.truncated(min(factor.order, needed - prod.min_exp))
                        prod = prod * factor
                        if prod.order > needed:
                            prod = prod.truncated(needed)
                    total = total + prod.coefficient(-1)
                return total
            except SeriesWindowError:
                continue
        raise SeriesWindowError("residue window did not stabilize; factor degrees exceed retry budget")

    # -- x-picture conversion --------------------------------------------------

    def z_square_series(self, order: int) -> TruncatedSeries:
        """z(x)^2 = (1 - s beta/x) / (1 - s alpha/x) as a series in t = 1/x."""
        t = "t"
        num = TruncatedSeries.from_map(t, {0: 1, 1: -S * self.beta}, order)
        den = TruncatedSeries.from_map(t, {0: 1, 1: -S * self.alpha}, order)
        return num * den.invert()

    def z_of_x_series(self, order: int) -> TruncatedSeries:
        return self.z_square_series(order).sqrt()

    def _slot_series(self, e: int, order: int) -> TruncatedSeries:
        """z(x)^{2e} dz/dx in t = 1/x, exact through t^(order+2).

        It is -(s(alpha-beta)/2) t^2 f, f = (1 - s beta t)^(e-1/2) (1 - s alpha t)^(-e-3/2),
        and log-differentiating f gives (1 - sigma1 t + sigma2 t^2) f' = -(c + 2 sigma2 t) f
        with sigma1 = s(alpha+beta), sigma2 = s^2 alpha beta, c = s((e-1/2) beta - (e+3/2) alpha),
        so f_{k+1} = (k sigma1 - c) f_k / (k+1) - sigma2 f_{k-1}.
        """
        sigma1, sigma2 = S * (self.alpha + self.beta), S ** 2 * self.alpha * self.beta
        c = S * ((e - Fraction(1, 2)) * self.beta - (e + Fraction(3, 2)) * self.alpha)
        f = [LaurentPolynomial.zero(), LaurentPolynomial.constant(1)]  # f_{-1}, f_0
        for k in range(order):
            f.append((k * sigma1 - c) * f[-1] / (k + 1) - sigma2 * f[-2])
        return TruncatedSeries("t", 0, order, f[1:]).shift(2) * (S * (self.beta - self.alpha) / 2)

    def to_x_series(self, g: int, n: int, order: int) -> NPointSeries:
        """w_{g,n} contracted one slot at a time over nondecreasing index prefixes."""
        table: Dict[int, TruncatedSeries] = {}
        out = NPointSeries(g, n, order)

        def slot(e: int, a: int) -> LaurentPolynomial:
            """The x^{-a-1} coefficient of z^{2e} dz/dx."""
            if e not in table:
                table[e] = self._slot_series(e, order)
            return table[e].coefficient(a + 1)

        def contract(state, prefix, budget):
            if len(prefix) == n:
                out.set_coefficient(prefix, _ab_to_uv(state[()]))
                return
            # grouped by the later slots, so each sum is reduced as soon as it is built
            by_rest: Dict[tuple, list] = {}
            for (e, *rest), part in state.items():
                by_rest.setdefault(tuple(rest), []).append((e, part))
            for a in range(prefix[-1] if prefix else 1, budget // (n - len(prefix))):
                nxt = {rest: sum_polys(slot(e, a) * part for e, part in parts)
                       for rest, parts in by_rest.items()}
                contract(nxt, prefix + (a,), budget - a - 1)

        contract(_by_slot_exponents(self.omega(g, n)), (), order)
        return out

    # -- verification ----------------------------------------------------------

    def verify_main_theorem(self, g: int, n: int, order: int,
                            virasoro: Optional[VirasoroEngine] = None) -> VerificationReport:
        """The differentials built by residue recursion in z equal the
        Virasoro-side n-point series after conversion to the x-picture."""
        virasoro = virasoro or VirasoroEngine()

        def comparisons():
            eo_side = self.to_x_series(g, n, order)
            vir_side = virasoro.npoint_series(g, n, order)
            for key in index_tuples(n, order):
                yield key, vir_side.coefficient(key), eo_side.coefficient(key)

        return run_comparisons("main-theorem", {"g": g, "n": n, "order": order}, comparisons())

    def curve_identity_report(self, order: int = 20) -> VerificationReport:
        """4 s^2 y(z)^2 x(z)^2 - (x(z)^2 - 2s(u+v) x(z) + s^2 (u-v)^2) = 0,
        checked as series at both charts (via the pole-free product y*x)."""
        uv_sum = A ** 2 + B ** 2
        uv_diff2 = (A ** 2 - B ** 2) ** 2

        def comparisons():
            for chart in ("zero", "infinity"):
                var = "z" if chart == "zero" else "wt"
                zz = LaurentPolynomial.variable(var)
                if chart == "zero":
                    # x = s(alpha z^2 - beta)/(z^2 - 1) = -s(alpha z^2 - beta)/(1 - z^2)
                    num = -S * (self.alpha * zz ** 2 - self.beta)
                    half_yx = Fraction(1, 2)
                else:
                    # x(1/wt) = s(alpha - beta wt^2)/(1 - wt^2)
                    num = S * (self.alpha - self.beta * zz ** 2)
                    half_yx = Fraction(-1, 2)
                inv = TruncatedSeries.from_map(var, {0: 1, 2: -1}, order).invert()
                x = TruncatedSeries.from_polynomial(num, var, order) * inv
                yx = half_yx * TruncatedSeries.from_polynomial((self.alpha - self.beta) * zz, var, order) * inv
                lhs = 4 * S ** 2 * yx * yx
                rhs = x * x - 2 * S * uv_sum * x + S ** 2 * uv_diff2
                for k in range(order + 1):
                    yield ((chart, k), rhs.coefficient(k), lhs.coefficient(k))

        return run_comparisons("curve-identity", {"order": order}, comparisons())


def _by_slot_exponents(form: EOForm) -> Dict[tuple, LaurentPolynomial]:
    """w_{g,n} as {(e_1, ..., e_n): coefficient in a, b of z_1^{2 e_1} ... z_n^{2 e_n}}."""
    poly, names = form.poly, slot_names(form.n)
    groups: Dict[tuple, dict] = {}
    for exps, coeff in poly.terms():
        vec = dict(zip(poly.alphabet, exps))
        key = tuple(vec.pop(name, 0) // 2 for name in names)
        groups.setdefault(key, {})[(vec.get("a", 0), vec.get("b", 0))] = coeff
    return {key: LaurentPolynomial(("a", "b"), terms) for key, terms in groups.items()}


def _ab_to_uv(poly: LaurentPolynomial) -> LaurentPolynomial:
    """Rewrite a polynomial in s, a, b over s, u = a^2, v = b^2; odd powers are a hard error."""
    terms = {}
    for exps, coeff in poly.terms():
        vec = dict(zip(poly.alphabet, exps))
        es, ea, eb = (vec.pop(name, 0) for name in "sab")
        if vec or ea % 2 or eb % 2:
            raise EOInvariantError(f"x-picture coefficient is not polynomial in u, v: {poly}")
        terms[(es, ea // 2, eb // 2)] = coeff
    return LaurentPolynomial(("s", "u", "v"), terms)


def eo_omega(g: int, n: int, engine: Optional[EOEngine] = None) -> EOForm:
    return (engine or EOEngine()).omega(g, n)
