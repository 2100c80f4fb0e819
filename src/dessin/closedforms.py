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

Each dessin form is a small numerator times Delta^{-m/2}, m = -1, 1, 3 or
5, so all four are read off the integer rows of one recurrence,
``delta_power_rows``, straight into ``NPointSeries`` vectors.  A row or a
value that is not integral is an internal fault.

The catalog also carries the genus-zero one- and two-point functions of
three neighbouring enumeration theories (psi-class intersections on the
moduli of curves in the variable g0, Hermitian one-matrix moments in the
't Hooft variable t, and the even-coupling variant), each with its exact
coefficient law.  Only these theories are expanded with exact series
arithmetic.  The generating-function identities (Narayana, A132812,
central binomial, type B/C and type D) all read the rows of
Delta^(-/+1/2) at s = 1.  Every check compares coefficient by coefficient
against the stated law, reporting the first discrepancy instead of raising.

Double-pole subtractions such as 1/(x1-x2)^2 are handled by expanding in
the asymmetric region |x2| < |x1| (a geometric series in x2/x1) and
asserting that the result is symmetric and supported on the expected
exponent window; the spurious boundary exponents must cancel exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, factorial
from typing import Dict, Iterator, List, Sequence, Tuple

from .laurent import LaurentPolynomial, mul_trunc, unit_pow_trunc
from .npoint import NPointSeries, Vector, _add, as_polynomial, convolve, index_tuples
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


def catalan(n: int) -> Fraction:
    if n < 0:
        raise ValueError("Catalan numbers need n >= 0")
    return Fraction(comb(2 * n, n), n + 1)


def narayana(n: int, k: int) -> Fraction:
    """N(n,k) = C(n,k) C(n,k-1) / n, defined for 1 <= k <= n."""
    if not (1 <= k <= n):
        raise ValueError(f"Narayana index out of range: n={n}, k={k}")
    return Fraction(comb(n, k) * comb(n, k - 1), n)


def odd_double_factorial(n: int) -> int:
    """(2n+1)!! = 1*3*5*...*(2n+1)."""
    out = 1
    for k in range(3, 2 * n + 2, 2):
        out *= k
    return out


# -- dessin closed forms -----------------------------------------------------

CLOSED_FORM_TARGETS = {"G01": (0, 1), "G02": (0, 2), "G03": (0, 3), "G11": (1, 1)}  # (g, n) of each form
UV_SUM, UV_GAP = (1, 1), (1, -2, 1)  # u + v and (u - v)^2 as graded vectors


def delta_series(var: str, order: int) -> TruncatedSeries:
    """Delta as a series in t = 1/x."""
    return TruncatedSeries.from_map(var, {0: 1, 1: -2 * S * (U + V), 2: S * S * (U - V) ** 2}, order)


def _exact(vec: Sequence[int], k: int, what: str) -> Vector:
    """vec / k, which must divide exactly: a remainder is an internal fault."""
    if any(c % k for c in vec):
        raise AssertionError(f"{what} is not integral: {tuple(vec)} / {k}")
    return tuple(c // k for c in vec)


def delta_power_rows(m: int, count: int) -> List[Vector]:
    """Rows 0..count-1 of Delta^(-m/2), m odd: row k is the graded vector of
    the t^k coefficient over s^k, t = 1/x.  Delta f' = -(m/2) Delta' f gives
    f_0 = 1, f_1 = m (u+v) and

        k f_k = (m+2k-2)(u+v) f_{k-1} - (m+k-2)(u-v)^2 f_{k-2}.
    """
    rows = [(1,), (m, m)][:count]
    for k in range(2, count):
        lin, quad = convolve(UV_SUM, rows[k - 1]), convolve(UV_GAP, rows[k - 2])
        num = [(m + 2 * k - 2) * x - (m + k - 2) * y for x, y in zip(lin, quad)]
        rows.append(_exact(num, k, f"row {k} of Delta^({-m}/2)"))
    return rows


def narayana_one_point_law(n: int) -> LaurentPolynomial:
    """s^n u v sum_k N(n,k) u^{n-k} v^{k-1}: the stated x^{-n-1} coefficient of G_{0,1}."""
    return as_polynomial(n, _narayana_row(n))


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


def dessin_closed_series(which: str, order: int) -> NPointSeries:
    """Expand one of the dessin closed forms G01, G02, G03 or G11 from the rows of Delta."""
    which = which.upper()
    if which not in CLOSED_FORM_TARGETS:
        raise ValueError(f"unknown closed form {which!r}; expected one of {', '.join(CLOSED_FORM_TARGETS)}")
    out = NPointSeries(*CLOSED_FORM_TARGETS[which], order)
    if which == "G01":
        # (1 - s(u+v) t - sqrt(Delta)) / (2s): the t^{a+1} coefficient is -1/2 row a+1
        rows = delta_power_rows(-1, order + 1)
        for a in range(1, order):
            out.set_coefficient((a,), _exact([-c for c in rows[a + 1]], 2, f"G01 at {a}"))
        return out

    if which == "G02":
        # (num R(t1) R(t2) - 1) / 2 times the double pole sum_k (k+1) t1^{k+2} t2^{-k}, with
        # num = 1 - s(u+v)(t1 + t2) + s^2 (u-v)^2 t1 t2 and R = Delta^(-1/2)
        R = [()] + delta_power_rows(1, order - 1)  # R[i + 1] is row i; row -1 is zero
        table = {}  # twice the t1^e1 t2^e2 coefficient, over s^{e1+e2-2}
        for n in range(order - 1):
            # on e1 + e2 = n + 2, first sums M(i, n-i) = [t1^i t2^{n-i}](num R R - 1) over
            # i <= e1 - 2, and second sums first: M(e1-2-k, e2+k) is counted k+1 times
            first, second = [-int(n == 0)] + [0] * n, [0] * (n + 1)  # M(0, 0) carries the -1
            for i in range(n + 1):
                j = n - i
                _add(first, convolve(R[i + 1], R[j + 1]))
                _add(first, convolve(UV_SUM, convolve(R[i], R[j + 1])), -1)
                _add(first, convolve(UV_SUM, convolve(R[i + 1], R[j])), -1)
                _add(first, convolve(UV_GAP, convolve(R[i], R[j])))
                _add(second, first)
                if j < 2 and any(second):
                    raise AssertionError(f"double-pole subtraction left residue at exponents ({i + 2},{j}): {second}")
                table[i + 2, j] = tuple(second)
        for a, b in index_tuples(2, order):
            if table[a + 1, b + 1] != table[b + 1, a + 1]:
                raise AssertionError(f"asymmetric two-point expansion at ({a + 1},{b + 1})")
            out.set_coefficient((a, b), _exact(table[a + 1, b + 1], 2, f"G02 at ({a + 1},{b + 1})"))
        return out

    if which == "G03":
        # 2 s^3 u v (1 - s^2 (u-v)^2 sum t_i t_j + 2 s^3 (u+v)(u-v)^2 t1 t2 t3)
        # times prod t_i^2 P(t_i), P = Delta^(-3/2); one value per sorted tuple
        P = [()] + delta_power_rows(3, order)  # P[i + 1] is row i; row -1 is zero
        for key in index_tuples(3, order):
            hi, lo = [P[a] for a in key], [P[a - 1] for a in key]
            acc = list(reduce(convolve, hi))
            for i in range(3):
                _add(acc, convolve(UV_GAP, convolve(hi[i], convolve(*lo[:i], *lo[i + 1:]))), -1)
            _add(acc, convolve(UV_SUM, convolve(UV_GAP, reduce(convolve, lo))), 2)
            out.set_coefficient(key, (0,) + tuple(2 * c for c in acc) + (0,))
        return out

    # G11 = u v s^3 t^4 Delta^(-5/2): the t^{a+1} coefficient is u v times row a-3
    rows = delta_power_rows(5, order)
    for a in range(3, order):
        out.set_coefficient((a,), (0,) + rows[a - 3] + (0,))
    return out


# -- generating-function identities ------------------------------------------
#
# Each identity reads the rows of Delta^(-/+1/2) at s = 1 (so z = s t) and
# works on graded vectors; a value becomes a polynomial only where it is
# compared, so a failure still prints one.


def _narayana_row(n: int) -> Vector:
    """sum_k C(n,k) C(n,k-1) u^{n+1-k} v^k / n, of degree n + 1."""
    return (0, *(int(narayana(n, k)) for k in range(1, n + 1)), 0)


def _square_binomial_row(n: int) -> Vector:
    """sum_k C(n,k)^2 u^{n-k} v^k."""
    return tuple(comb(n, k) ** 2 for k in range(n + 1))


def _check_narayana_gf(order: int) -> Iterator:
    # (1 - (u+v) z - sqrt(Delta)) / 2
    lin = [(1,), (-1, -1)]
    for j, row in enumerate(delta_power_rows(-1, order + 1)):
        actual = [-c for c in row]
        if j < 2:
            _add(actual, lin[j])
        expected = _narayana_row(j - 1) if j >= 2 else ()
        yield (("z", j), as_polynomial(0, expected), as_polynomial(0, actual, 2))


def _check_a132812_gf(order: int) -> Iterator:
    # ((1 - (u+v) z) / sqrt(Delta) - 1) / 2
    R = delta_power_rows(1, order + 1)
    for j in range(order + 1):
        actual = list(R[j])
        if j:
            _add(actual, convolve(UV_SUM, R[j - 1]), -1)
        else:
            actual[0] -= 1
        expected = [(j - 1) * c for c in _narayana_row(j - 1)] if j >= 2 else ()
        yield (("z", j), as_polynomial(0, expected), as_polynomial(0, actual, 2))


def _check_central_binomial_gf(order: int) -> Iterator:
    for j, row in enumerate(delta_power_rows(1, order + 1)):
        yield (("z", j), as_polynomial(0, _square_binomial_row(j)), as_polynomial(0, row))


def _in_y(vec: Vector) -> LaurentPolynomial:
    return LaurentPolynomial(("y",), {(k,): c for k, c in enumerate(vec)})


def _check_typeb_gf(order: int) -> Iterator:
    # 1 / sqrt(1 - (2 + 2y) x + (1 - y)^2 x^2): Delta at s = u = 1, v = y, in x
    for j, row in enumerate(delta_power_rows(1, order + 1)):
        yield (("x", j), _in_y(_square_binomial_row(j)), _in_y(row))


def _type_d_row(n: int) -> Vector:
    if n == 0:
        return (1,)
    inner = (comb(n, k) ** 2 - n * comb(n - 1, k - 1) * comb(n - 1, k) // (n - 1) for k in range(1, n))
    return (1, *inner, 1)


def type_d_row(n: int) -> LaurentPolynomial:
    """Coefficient row of the type-D Narayana series in u, v.

    Row 0 is the constant 1; for n >= 1 the row is
    u^n + v^n + sum_{k=1}^{n-1} [C(n,k)^2 - n/(n-1) C(n-1,k-1) C(n-1,k)] u^{n-k} v^k.
    """
    return as_polynomial(0, _type_d_row(n))


def _check_typed_gf(order: int) -> Iterator:
    # term-by-term rearrangement: type-D row = squared-binomial row minus
    # n times Narayana row n - 1 (the shifted derivative of the Narayana series)
    for n in range(order + 1):
        rhs = list(_square_binomial_row(n))
        if n >= 2:
            _add(rhs, _narayana_row(n - 1), -n)
        yield (("row", n), type_d_row(n), as_polynomial(0, rhs))
    # the t^j coefficients, over s^(j-1), of the type-D series sum_n s^n row_n t^(n+1)
    lhs = [()] + [_type_d_row(n) for n in range(order)]
    R = [()] * 3 + delta_power_rows(1, order)  # R[i + 3] is row i; rows -3..-1 are zero
    # middle form of the chain: t/sqrt(Delta) + s d/dx of the Narayana series
    # sum_n s^n (Narayana row n) t^(n+1), with d/dx = -t^2 d/dt
    for j in range(order + 1):
        middle = list(R[j + 2])
        if j >= 3:
            _add(middle, _narayana_row(j - 2), -(j - 1))
        yield (("t-middle", j), as_polynomial(j - 1, middle), as_polynomial(j - 1, lhs[j]))
    # closed form at the end of the chain:
    # s(u+v) t^2 / 2 + t (2 - s(u+v) t + s^2 (u-v)^2 t^2) / (2 sqrt(Delta))
    for j in range(order + 1):
        rhs = [2 * c for c in R[j + 2]]
        _add(rhs, convolve(UV_SUM, R[j + 1]), -1)
        _add(rhs, convolve(UV_GAP, R[j]))
        if j == 2:
            _add(rhs, UV_SUM)
        yield (("t", j), as_polynomial(j - 1, rhs, 2), as_polynomial(j - 1, lhs[j]))


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
        yield ((1, b), as_polynomial(b + 1, [b * c for c in _narayana_row(b)]), g.coefficient((1, b)))
    # row <p_2 p_n>: coefficient (2, b) carries the bracketed square-difference law
    for b in range(1, order - 3):
        row = (comb(b + 1, k) * comb(b + 1, k - 1) - comb(b, k - 1) ** 2 for k in range(1, b + 2))
        yield ((2, b), as_polynomial(b + 2, (0, *(2 * c for c in row), 0)), g.coefficient((2, b)))


def _check_dessin_three(order: int) -> Iterator:
    """G03 at (1,1,1), then the two lowest Virasoro constraints read as
    relations between closed forms:

        G03(1,a,b) = s (a+b) G02(a,b)
        G03(2,a,b) = s [a G02(a+1,b) + b G02(a,b+1) + (u+v) G03(1,a,b)]
    """
    g3, g2 = dessin_closed_series("G03", order), dessin_closed_series("G02", order)
    yield ((1, 1, 1), 2 * S ** 3 * U * V, g3.coefficient((1, 1, 1)))
    for a, b in index_tuples(2, order - 2):
        rhs = [(a + b) * c for c in g2.vector((a, b))]
        yield (("p1", a, b), as_polynomial(a + b + 1, rhs), g3.coefficient((1, a, b)))
    for a, b in index_tuples(2, order - 3):
        rhs = list(convolve(UV_SUM, g3.vector((1, a, b))))
        _add(rhs, g2.vector((a + 1, b)), a)
        _add(rhs, g2.vector((a, b + 1)), b)
        yield (("p2", a, b), as_polynomial(a + b + 2, rhs), g3.coefficient((2, a, b)))


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
