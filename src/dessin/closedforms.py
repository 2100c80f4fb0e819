"""Closed-form generating functions and combinatorial identity checks.

Dessin enumeration side:

    Delta(x)  = 1 - 2s(u+v)/x + s^2 (u-v)^2 / x^2
    G_{0,1}(x) = (1 - s(u+v)/x - sqrt(Delta(x))) / (2s)
    G_{0,2}(x1,x2) = (1 - s(u+v)/x1 - s(u+v)/x2 + s^2(u-v)^2/(x1 x2))
                     / (2 (x1-x2)^2 sqrt(Delta(x1) Delta(x2)))  -  1/(2(x1-x2)^2)
    G_{0,3}, G_{1,1}: explicit rational-times-Delta^{-k/2} forms.

The x^{-n-1} coefficient of G_{0,1} is s^n u v times the n-th Narayana
polynomial row, which is what ties dessin counting to Narayana numbers;
setting u = v = 1 collapses each row to a Catalan number.

The catalog also carries the genus-zero one- and two-point functions of
three neighbouring enumeration theories (psi-class intersections on the
moduli of curves in the variable g0, Hermitian one-matrix moments in the
't Hooft variable t, and the even-coupling variant), each with its exact
coefficient law, plus the type B/C and type D Narayana generating series.

Every check expands the closed form with exact series arithmetic and
compares coefficient by coefficient against the stated law, reporting the
first discrepancy instead of raising.

Double-pole subtractions such as 1/(x1-x2)^2 are handled by expanding in
the asymmetric region |x2| < |x1| (a geometric series in x2/x1) and
asserting that the result is symmetric and supported on the expected
exponent window; the spurious boundary exponents must cancel exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterator, Tuple

from .laurent import LaurentPolynomial, mul_trunc, unit_pow_trunc
from .npoint import NPointSeries
from .report import VerificationReport, run_comparisons
from .series import TruncatedSeries

S = LaurentPolynomial.variable("s")
U = LaurentPolynomial.variable("u")
V = LaurentPolynomial.variable("v")

# the displayed x^{-n-1} numerators of G_{0,1} for n <= 5
G01_NUMERATORS = {
    1: S * U * V,
    2: S ** 2 * U * V * (U + V),
    3: S ** 3 * U * V * (U ** 2 + 3 * U * V + V ** 2),
    4: S ** 4 * U * V * (U ** 3 + 6 * U ** 2 * V + 6 * U * V ** 2 + V ** 3),
    5: S ** 5 * U * V * (U ** 4 + 10 * U ** 3 * V + 20 * U ** 2 * V ** 2 + 10 * U * V ** 3 + V ** 4),
}

# the displayed x^{-a-1} coefficients of G_{1,1} for a = 3..6 (with the u v factor)
G11_NUMERATORS = {
    3: U * V * S ** 3,
    4: 5 * U * V * (U + V) * S ** 4,
    5: U * V * (15 * U ** 2 + 40 * U * V + 15 * V ** 2) * S ** 5,
    6: 35 * U * V * (U + V) * (U ** 2 + 4 * U * V + V ** 2) * S ** 6,
}


def binom(n: int, k: int) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


def catalan(n: int) -> Fraction:
    if n < 0:
        raise ValueError("Catalan numbers need n >= 0")
    return Fraction(comb(2 * n, n), n + 1)


def narayana(n: int, k: int) -> Fraction:
    """N(n,k) = C(n,k) C(n,k-1) / n, defined for 1 <= k <= n."""
    if not (1 <= k <= n):
        raise ValueError(f"Narayana index out of range: n={n}, k={k}")
    return Fraction(comb(n, k) * comb(n, k - 1), n)


def narayana_poly(n: int) -> LaurentPolynomial:
    """N_n(q) = sum_k N(n,k) q^k."""
    q = "q"
    return LaurentPolynomial((q,), {(k,): narayana(n, k) for k in range(1, n + 1)})


def odd_double_factorial(n: int) -> int:
    """(2n+1)!! = 1*3*5*...*(2n+1)."""
    out = 1
    for k in range(3, 2 * n + 2, 2):
        out *= k
    return out


# -- dessin closed forms -----------------------------------------------------


DELTA = {0: 1, 1: -2 * S * (U + V), 2: S * S * (U - V) ** 2}  # Delta's coefficients in t = 1/x


def delta_series(var: str, order: int) -> TruncatedSeries:
    """Delta as a series in t = 1/x."""
    return TruncatedSeries.from_map(var, DELTA, order)


def sqrt_delta_series(var: str, order: int) -> TruncatedSeries:
    return delta_series(var, order).sqrt()


def inv_sqrt_delta_series(var: str, order: int) -> TruncatedSeries:
    return sqrt_delta_series(var, order).invert()


def g01_series(order: int) -> TruncatedSeries:
    """G_{0,1} in t = 1/x; the t^{n+1} coefficient is the weighted one-point value."""
    t = "t"
    lin = TruncatedSeries.from_map(t, {0: 1, 1: -S * (U + V)}, order)
    num = lin - sqrt_delta_series(t, order)
    half_inv_s = LaurentPolynomial.monomial(Fraction(1, 2), {"s": -1})
    return num * half_inv_s


def narayana_one_point_law(n: int) -> LaurentPolynomial:
    """s^n u v sum_k N(n,k) u^{n-k} v^{k-1}: the stated x^{-n-1} coefficient of G_{0,1}."""
    return S ** n * _narayana_row(n)


def _double_pole_product(M: LaurentPolynomial, v1: str, v2: str, prefactor: int, step: int,
                         max_total: int) -> Dict[Tuple[int, int], LaurentPolynomial]:
    """Coefficients of M * v1^prefactor * sum_{k>=0} (k+1) (v1/v2)^{step k}.

    This is the expansion of the 1/(x1-x2)^2-style double pole in the
    region |x2| < |x1|.  Only output pairs with both exponents >= 0 and
    total <= max_total are collected; everything below that window must
    cancel and the caller asserts as much on the boundary rows.
    """
    out: Dict[Tuple[int, int], LaurentPolynomial] = {}
    for e1 in M.exponent_range(v1):
        p1 = M.coefficient_of(v1, e1)
        for e2 in p1.exponent_range(v2):
            c = p1.coefficient_of(v2, e2)
            if c.is_zero():
                continue
            k = 0
            while e2 - step * k >= 0:
                o1, o2 = e1 + prefactor + step * k, e2 - step * k
                if o1 + o2 <= max_total:
                    out[(o1, o2)] = out.get((o1, o2), LaurentPolynomial.zero()) + (k + 1) * c
                k += 1
    return {key: val for key, val in out.items() if not val.is_zero()}


def _half_double_pole(num: LaurentPolynomial, f: Dict[int, object], names: Tuple[str, str], depth: int,
                      max_total: int) -> Dict[Tuple[int, int], LaurentPolynomial]:
    """(num / sqrt(f(w1) f(w2)) - 1) / 2 through total degree depth, times the
    double pole as in _double_pole_product; f maps powers of w to coefficients.
    The square root factors, so it is a product of two one-variable series."""
    w1, w2 = names
    root = mul_trunc(*(TruncatedSeries.from_map(w, f, depth).sqrt().invert().as_polynomial() for w in names),
                     names, depth)
    M = mul_trunc(num, root, names, depth) - 1
    table = _double_pole_product(M, w1, w2, prefactor=2, step=1, max_total=max_total)
    return {k: Fraction(1, 2) * v for k, v in table.items()}


def _dessin_g02_table(order: int) -> Dict[Tuple[int, int], LaurentPolynomial]:
    T1, T2 = LaurentPolynomial.variable("t1"), LaurentPolynomial.variable("t2")
    suv = S * (U + V)
    num = 1 - suv * T1 - suv * T2 + DELTA[2] * T1 * T2
    table = _half_double_pole(num, DELTA, ("t1", "t2"), order - 2, order)
    for (e1, e2), val in table.items():
        if e2 < 2 and not val.is_zero():
            raise AssertionError(f"double-pole subtraction left residue at exponents ({e1},{e2}): {val}")
    return {k: v for k, v in table.items() if k[1] >= 2 and not v.is_zero()}


def dessin_closed_series(which: str, order: int) -> NPointSeries:
    """Expand one of the dessin closed forms: G01, G02, G03 or G11."""
    which = which.upper()
    if which == "G01":
        out = NPointSeries(0, 1, order)
        g = g01_series(order)
        for a in range(1, order):
            out.set_polynomial((a,), g.coefficient(a + 1))
        return out

    if which == "G02":
        out = NPointSeries(0, 2, order)
        table = _dessin_g02_table(order)
        for (e1, e2), val in table.items():
            if (e1, e2) != tuple(sorted((e1, e2))):
                continue
            sym = table.get((e2, e1), LaurentPolynomial.zero())
            if sym != val:
                raise AssertionError(f"asymmetric two-point expansion at ({e1},{e2})")
            out.set_polynomial((e1 - 1, e2 - 1), val)
        return out

    if which == "G03":
        out = NPointSeries(0, 3, order)
        tvars = ("t1", "t2", "t3")
        tpoly = [LaurentPolynomial.variable(n) for n in tvars]
        sd2 = S * S * (U - V) ** 2
        num = (
            1
            - sd2 * (tpoly[0] * tpoly[1] + tpoly[1] * tpoly[2] + tpoly[2] * tpoly[0])
            + 2 * (U + V) * sd2 * S * tpoly[0] * tpoly[1] * tpoly[2]
        )
        acc = 2 * S ** 3 * U * V * num
        factor = delta_series("t", order).unit_pow(Fraction(-3, 2)).shift(2).as_polynomial()
        for tvar in tpoly:
            acc = mul_trunc(acc, factor.substitute({"t": tvar}), tvars, order)
        seen = {}
        for e1 in acc.exponent_range(tvars[0]):
            p1 = acc.coefficient_of(tvars[0], e1)
            for e2 in p1.exponent_range(tvars[1]):
                p2 = p1.coefficient_of(tvars[1], e2)
                for e3 in p2.exponent_range(tvars[2]):
                    c = p2.coefficient_of(tvars[2], e3)
                    if c.is_zero():
                        continue
                    key = tuple(sorted((e1 - 1, e2 - 1, e3 - 1)))
                    if key in seen and seen[key] != c:
                        raise AssertionError(f"asymmetric three-point expansion at {key}")
                    seen[key] = c
        for key, c in seen.items():
            out.set_polynomial(key, c)
        return out

    if which == "G11":
        out = NPointSeries(1, 1, order)
        g = delta_series("t", order).unit_pow(Fraction(-5, 2)).shift(4) * (U * V * S ** 3)
        for a in range(3, order):
            out.set_polynomial((a,), g.coefficient(a + 1))
        return out

    raise ValueError(f"unknown closed form {which!r}; expected one of G01, G02, G03, G11")


# -- generating-function identities ------------------------------------------


def _dessin_z_delta(order: int) -> TruncatedSeries:
    """1 - 2(u+v)z + (u-v)^2 z^2 as a series in z."""
    return TruncatedSeries.from_map("z", {0: 1, 1: -2 * (U + V), 2: (U - V) ** 2}, order)


def _narayana_row(n: int) -> LaurentPolynomial:
    """sum_k C(n,k) C(n,k-1) u^{n+1-k} v^k / n."""
    out = LaurentPolynomial.zero()
    for k in range(1, n + 1):
        out = out + narayana(n, k) * U ** (n + 1 - k) * V ** k
    return out


def _square_binomial_row(n: int) -> LaurentPolynomial:
    out = LaurentPolynomial.zero()
    for k in range(0, n + 1):
        out = out + binom(n, k) ** 2 * U ** (n - k) * V ** k
    return out


def _check_narayana_gf(order: int) -> Iterator:
    lhs = Fraction(1, 2) * (
        TruncatedSeries.from_map("z", {0: 1, 1: -(U + V)}, order) - _dessin_z_delta(order).sqrt()
    )
    for j in range(order + 1):
        expected = _narayana_row(j - 1) if j >= 2 else LaurentPolynomial.zero()
        yield (("z", j), expected, lhs.coefficient(j))


def _check_a132812_gf(order: int) -> Iterator:
    lin = TruncatedSeries.from_map("z", {0: 1, 1: -(U + V)}, order)
    lhs = Fraction(1, 2) * lin * _dessin_z_delta(order).sqrt().invert() - Fraction(1, 2)
    for j in range(order + 1):
        expected = (j - 1) * _narayana_row(j - 1) if j >= 2 else LaurentPolynomial.zero()
        yield (("z", j), expected, lhs.coefficient(j))


def _check_central_binomial_gf(order: int) -> Iterator:
    lhs = _dessin_z_delta(order).sqrt().invert()
    for j in range(order + 1):
        yield (("z", j), _square_binomial_row(j), lhs.coefficient(j))


def _check_typeb_gf(order: int) -> Iterator:
    y = LaurentPolynomial.variable("y")
    base = TruncatedSeries.from_map(
        "x", {0: 1, 1: -2 - 2 * y, 2: 1 - 2 * y + y * y}, order
    )
    lhs = base.sqrt().invert()
    for j in range(order + 1):
        row = sum((binom(j, k) ** 2 * y ** k for k in range(j + 1)), LaurentPolynomial.zero())
        yield (("x", j), row, lhs.coefficient(j))


def type_d_row(n: int) -> LaurentPolynomial:
    """Coefficient row of the type-D Narayana series in u, v.

    Row 0 is the constant 1; for n >= 1 the row is
    u^n + v^n + sum_{k=1}^{n-1} [C(n,k)^2 - n/(n-1) C(n-1,k-1) C(n-1,k)] u^{n-k} v^k.
    """
    if n == 0:
        return LaurentPolynomial.constant(1)
    out = U ** n + V ** n
    for k in range(1, n):
        coeff = binom(n, k) ** 2 - Fraction(n, n - 1) * binom(n - 1, k - 1) * binom(n - 1, k)
        out = out + coeff * U ** (n - k) * V ** k
    return out


def _check_typed_gf(order: int) -> Iterator:
    # term-by-term rearrangement: type-D row = squared-binomial row minus the
    # shifted derivative of the Narayana series
    for n in range(order + 1):
        shifted = LaurentPolynomial.zero()
        if n >= 2:
            shifted = Fraction(n, n - 1) * sum(
                (binom(n - 1, k) * binom(n - 1, k - 1) * U ** (n - k) * V ** k
                 for k in range(1, n)),
                LaurentPolynomial.zero(),
            )
        yield (("row", n), type_d_row(n), _square_binomial_row(n) - shifted)
    t = "t"
    depth = max(order - 1, 2)
    lhs = TruncatedSeries.from_map(
        t, {n + 1: S ** n * type_d_row(n) for n in range(order)}, order
    )
    # middle form of the chain: t/sqrt(Delta) + s d/dx of the Narayana series,
    # with d/dx = -t^2 d/dt
    narayana_series = TruncatedSeries.from_map(
        t, {n + 1: S ** n * _narayana_row(n) for n in range(1, order + 1)}, order + 1
    )
    middle = inv_sqrt_delta_series(t, depth).shift(1).truncated(order) - (
        S * narayana_series.differentiate().shift(2)
    ).truncated(order)
    for j in range(order + 1):
        yield (("t-middle", j), middle.coefficient(j), lhs.coefficient(j))
    # closed form at the end of the chain
    claw = Fraction(1, 2) * S * (U + V)
    poly = TruncatedSeries.from_map(t, {0: 2, 1: -S * (U + V), 2: S * S * (U - V) ** 2}, depth)
    rhs = TruncatedSeries.from_map(t, {2: claw}, order) + (
        Fraction(1, 2) * poly * inv_sqrt_delta_series(t, depth)
    ).shift(1).truncated(order)
    for j in range(order + 1):
        yield (("t", j), rhs.coefficient(j), lhs.coefficient(j))


GF_IDENTITIES = {
    "narayana-gf": _check_narayana_gf,
    "a132812-gf": _check_a132812_gf,
    "central-binomial-gf": _check_central_binomial_gf,
    "typeB-gf": _check_typeb_gf,
    "typeD-gf": _check_typed_gf,
}


def identity_names():
    return sorted(GF_IDENTITIES)


def gf_identity_check(name: str, order: int) -> VerificationReport:
    if name not in GF_IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; valid names: {', '.join(identity_names())}")
    if order < 2:
        raise ValueError("identity checks need order >= 2")
    return run_comparisons(f"identity:{name}", {"name": name, "order": order}, GF_IDENTITIES[name](order))


# -- catalog of neighbouring theories ------------------------------------------


def _check_wk_one(order: int) -> Iterator:
    g0 = LaurentPolynomial.variable("g0")
    worder = 2 * order
    base = TruncatedSeries.from_map("w", {0: 1, 2: -2 * g0}, worder)
    f = TruncatedSeries.from_map("w", {0: 1, 2: -g0}, worder) - base.sqrt()
    # f = w * G^{WK}_{0,1}(1/w); nonzero coefficients sit at w^{2n+4}
    for j in range(worder + 1):
        if j >= 4 and j % 2 == 0:
            n = (j - 4) // 2
            expected = Fraction(odd_double_factorial(n), factorial(n + 2)) * g0 ** (n + 2)
        else:
            expected = LaurentPolynomial.zero()
        yield (("w", j), expected, f.coefficient(j))


def _check_wk_two(order: int) -> Iterator:
    g0 = LaurentPolynomial.variable("g0")
    wmax = 2 * order + 4
    w1, w2 = "w1", "w2"
    W1, W2 = LaurentPolynomial.variable(w1), LaurentPolynomial.variable(w2)
    tvars = (w1, w2)
    depth = wmax - 4
    radic = mul_trunc(1 - 2 * g0 * W1 ** 2, 1 - 2 * g0 * W2 ** 2, tvars, depth)
    usr = unit_pow_trunc(radic, Fraction(-1, 2), tvars, depth)
    # (z1^2 + z2^2 - 4 g0) w1 w2 = w2/w1 + w1/w2 - 4 g0 w1 w2, exponents >= -1
    prefix = (
        LaurentPolynomial.monomial(1, {w1: -1, w2: 1})
        + LaurentPolynomial.monomial(1, {w1: 1, w2: -1})
        - 4 * g0 * W1 * W2
    )
    first = (prefix * usr).truncate(tvars, depth)
    second = LaurentPolynomial.monomial(1, {w1: -1, w2: 1}) + LaurentPolynomial.monomial(1, {w1: 1, w2: -1})
    M = first - second
    table = _double_pole_product(M, w1, w2, prefactor=4, step=2, max_total=wmax)
    for (j1, j2) in sorted(table):
        if j2 < 3 and not table[(j1, j2)].is_zero():
            raise AssertionError(f"WK double-pole subtraction left residue at ({j1},{j2})")
    for j1 in range(wmax + 1):
        for j2 in range(3, wmax + 1 - j1):
            actual = table.get((j1, j2), LaurentPolynomial.zero())
            if j1 >= 3 and j1 % 2 == 1 and j2 % 2 == 1:
                k, l = (j1 - 3) // 2, (j2 - 3) // 2
                expected = (
                    Fraction(odd_double_factorial(k) * odd_double_factorial(l))
                    / (factorial(k) * factorial(l) * (k + l + 1))
                ) * g0 ** (k + l + 1)
            else:
                expected = LaurentPolynomial.zero()
            yield ((j1, j2), expected, actual)


def _check_hermitian_one(order: int) -> Iterator:
    t = LaurentPolynomial.variable("t")
    worder = 2 * order
    f = Fraction(1, 2) * (1 - TruncatedSeries.from_map("w", {0: 1, 2: -4 * t}, worder).sqrt())
    # f = w * G_{0,1}(1/w); the moment <p_m> sits at w^{m+2} of f, so even
    # moments give Catalan numbers at even powers and odd moments vanish
    for j in range(worder + 1):
        if j >= 2 and j % 2 == 0:
            n = (j - 2) // 2
            expected = catalan(n) * t ** (n + 1)
        else:
            expected = LaurentPolynomial.zero()
        yield (("w", j), expected, f.coefficient(j))


def _check_hermitian_two(order: int) -> Iterator:
    t = LaurentPolynomial.variable("t")
    wmax = 2 * order + 2
    W1, W2 = LaurentPolynomial.variable("w1"), LaurentPolynomial.variable("w2")
    table = _half_double_pole(1 - 4 * t * W1 * W2, {0: 1, 2: -4 * t}, ("w1", "w2"), wmax - 2, wmax)
    for j1 in range(wmax + 1):
        for j2 in range(wmax + 1 - j1):
            actual = table.get((j1, j2), LaurentPolynomial.zero())
            expected = LaurentPolynomial.zero()
            if j1 >= 2 and j2 >= 2 and (j1 % 2 == j2 % 2):
                if j1 % 2 == 0:
                    m, n = (j1 - 2) // 2, (j2 - 2) // 2
                    expected = (
                        Fraction(factorial(2 * m + 1) * factorial(2 * n + 1))
                        / (factorial(m) ** 2 * factorial(n) ** 2 * (m + n + 1))
                    ) * t ** (m + n + 1)
                else:
                    m, n = (j1 - 3) // 2, (j2 - 3) // 2
                    expected = (
                        4 * Fraction(factorial(2 * m + 1) * factorial(2 * n + 1))
                        / (factorial(m) ** 2 * factorial(n) ** 2 * (m + n + 2))
                    ) * t ** (m + n + 2)
            yield ((j1, j2), expected, actual)


def _check_even_coupling_one(order: int) -> Iterator:
    t = LaurentPolynomial.variable("t")
    f = Fraction(1, 4) * (
        TruncatedSeries.from_map("w", {0: 1, 1: -2 * t}, order)
        - TruncatedSeries.from_map("w", {0: 1, 1: -4 * t}, order).sqrt()
    )
    for j in range(order + 1):
        if j >= 2:
            expected = Fraction(factorial(2 * j - 2), 2 * factorial(j - 1) * factorial(j)) * t ** j
        else:
            expected = LaurentPolynomial.zero()
        yield (("w", j), expected, f.coefficient(j))


def _check_even_coupling_two(order: int) -> Iterator:
    t = LaurentPolynomial.variable("t")
    wmax = order + 2
    W1, W2 = LaurentPolynomial.variable("w1"), LaurentPolynomial.variable("w2")
    table = _half_double_pole(1 - 2 * t * W1 - 2 * t * W2, {0: 1, 1: -4 * t}, ("w1", "w2"), wmax - 2, wmax)
    for j1 in range(wmax + 1):
        for j2 in range(wmax + 1 - j1):
            actual = table.get((j1, j2), LaurentPolynomial.zero())
            expected = LaurentPolynomial.zero()
            if j1 >= 2 and j2 >= 2:
                m, n = j1 - 2, j2 - 2
                expected = (
                    Fraction(2, m + n + 2)
                    * Fraction(factorial(2 * m + 1), factorial(m) ** 2)
                    * Fraction(factorial(2 * n + 1), factorial(n) ** 2)
                ) * t ** (m + n + 2)
            yield ((j1, j2), expected, actual)


def _check_dessin_one(order: int) -> Iterator:
    g = dessin_closed_series("G01", order)
    for n in range(1, order):
        yield ((n,), narayana_one_point_law(n), g.coefficient((n,)))


def _check_dessin_two(order: int) -> Iterator:
    g = dessin_closed_series("G02", order)
    # row <p_1 p_n>: coefficient (1, b) = s^{b+1} sum_k C(b,k) C(b,k-1) u^{b+1-k} v^k
    for b in range(1, order - 2):
        expected = S ** (b + 1) * (b * _narayana_row(b))
        yield ((1, b), expected, g.coefficient((1, b)))
    # row <p_2 p_n>: coefficient (2, b) carries the bracketed square-difference law
    for b in range(1, order - 3):
        row = LaurentPolynomial.zero()
        for k in range(1, b + 2):
            coeff = binom(b + 1, k) * binom(b + 1, k - 1) - binom(b, k - 1) ** 2
            row = row + coeff * U ** (b + 2 - k) * V ** k
        yield ((2, b), 2 * S ** (b + 2) * row, g.coefficient((2, b)))


def _check_dessin_three(order: int) -> Iterator:
    g = dessin_closed_series("G03", order)
    yield ((1, 1, 1), 2 * S ** 3 * U * V, g.coefficient((1, 1, 1)))
    # degree laws: every coefficient is s^{sum a} times u v times a (u,v)-polynomial
    for key in g.keys():
        val = g.coefficient(key)
        total = sum(key)
        yield (("s-degree", key), (total, total), (val.valuation("s"), val.degree("s")))
        yield (("uv-divisible", key), (True, True), (val.valuation("u") >= 1, val.valuation("v") >= 1))


def _check_dessin_g11(order: int) -> Iterator:
    g = dessin_closed_series("G11", order)
    for a, expected in G11_NUMERATORS.items():
        if a + 1 <= order:
            yield ((a,), expected, g.coefficient((a,)))


CATALOG = {
    ("wk", "one"): _check_wk_one,
    ("wk", "two"): _check_wk_two,
    ("hermitian", "one"): _check_hermitian_one,
    ("hermitian", "two"): _check_hermitian_two,
    ("even-coupling", "one"): _check_even_coupling_one,
    ("even-coupling", "two"): _check_even_coupling_two,
    ("dessin", "one"): _check_dessin_one,
    ("dessin", "two"): _check_dessin_two,
    ("dessin", "three"): _check_dessin_three,
    ("dessin", "one-genus-one"): _check_dessin_g11,
}


def catalog_names():
    return sorted(f"{theory}/{points}" for theory, points in CATALOG)


def catalog_check(key: str, order: int) -> VerificationReport:
    """key is "theory/point-count", e.g. "hermitian/one".

    The order parameter is the coefficient-law order (the g0- or t-degree
    for the catalog theories, the total inverse-x order for dessin forms).
    """
    parts = tuple(key.split("/"))
    if len(parts) != 2 or parts not in CATALOG:
        raise KeyError(f"unknown catalog key {key!r}; valid keys: {', '.join(catalog_names())}")
    if order < 1:
        raise ValueError("catalog checks need order >= 1")
    return run_comparisons(f"catalog:{key}", {"key": key, "order": order}, CATALOG[parts](order))
