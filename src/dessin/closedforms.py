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

Every curve here is the square root of a radicand 1 + a1 w + a2 w^2, and
every value is read off the integer rows of one recurrence for its powers,
``power_rows`` (which ``airy`` and the branch-point checks read too); a row
or a value that is not integral is an internal fault.
Each dessin form is a small numerator times Delta^{-m/2}, m = -1, 1, 3 or 5.

The catalog also carries the genus-zero one- and two-point functions of
three neighbouring enumeration theories (psi-class intersections on the
moduli of curves in the variable g0, Hermitian one-matrix moments in the
't Hooft variable t, and the even-coupling variant), each with its exact
coefficient law.  Their radicands 1 - 4t w^2 and 1 - 4t w have rows of
length 1 whose power of t the exponent of w fixes; 1 - 2 g0 w^2 is
1 - 4t w^2 at t = g0/2.  The generating-function identities (Narayana,
A132812, central binomial, type B/C and type D) hold at s = 1.  Every
check compares coefficient by coefficient against the stated law,
reporting the first discrepancy instead of raising; a value becomes a
polynomial only where it is compared, so a failure still prints one.

The double pole 1/(x1-x2)^2 of every two-point function is expanded by one
routine, ``_double_pole``, in the region |x2| < |x1|: a geometric series
in x2/x1 whose spurious boundary exponents must cancel exactly.  The
dessin and Witten-Kontsevich forms assert it; the other catalog theories
compare those entries against zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, factorial
from typing import Dict, Iterator, List, Sequence, Tuple

from .laurent import LaurentPolynomial
from .npoint import NPointSeries, Vector, _add, as_polynomial, convolve, index_tuples
from .report import VerificationReport, run_comparisons

# the displayed x^{-n-1} numerators of G_{0,1} for n <= 5, over s^n
G01_NUMERATORS = {
    1: (0, 1, 0),
    2: (0, 1, 1, 0),
    3: (0, 1, 3, 1, 0),
    4: (0, 1, 6, 6, 1, 0),
    5: (0, 1, 10, 20, 10, 1, 0),
}

# the displayed x^{-a-1} coefficients of G_{1,1} for a = 3..6 (with the u v factor), over s^a
G11_NUMERATORS = {
    3: (0, 1, 0),
    4: (0, 5, 5, 0),
    5: (0, 15, 40, 15, 0),
    6: (0, 35, 175, 175, 35, 0),
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
# the catalog radicands 1 - 4t w^2 and 1 - 4t w as (a1, a2), over the power of t that w fixes
QUADRATIC, LINEAR = ((0,), (-4,)), ((-4,), ())
ONE = {(0, 0): (1,)}  # the two-point numerator at zero coupling


def _exact(vec: Sequence[int], k: int, what: str) -> Vector:
    """vec / k, which must divide exactly: a remainder is an internal fault."""
    if any(c % k for c in vec):
        raise AssertionError(f"{what} is not integral: {tuple(vec)} / {k}")
    return tuple(c // k for c in vec)


def power_rows(m: int, a1: Vector, a2: Vector, count: int) -> List[Vector]:
    """Rows 0..count-1 of f^(-m/2), f = 1 + a1 w + a2 w^2 with a1 and a2 graded
    vectors of degrees d and 2d (a2 may be empty): row k is the w^k coefficient,
    of degree k d.  m is any integer: odd m gives the radicals, and airy's
    D^-2 is m = 4.  f g' = -(m/2) f' g gives g_0 = 1 and
    (J.C.P. Miller's recurrence for the powers of a series)

        2k g_k = -(m+2k-2) a1 g_{k-1} - 2(m+k-2) a2 g_{k-2}.
    """
    rows = [(1,)]
    for k in range(1, count):
        num = [-(m + 2 * k - 2) * c for c in convolve(a1, rows[k - 1])]
        if k > 1:
            _add(num, convolve(a2, rows[k - 2]), -2 * (m + k - 2))
        rows.append(_exact(num, 2 * k, f"row {k} of ({a1}, {a2})^({-m}/2)"))
    return rows[:count]


def delta_power_rows(m: int, count: int) -> List[Vector]:
    """Rows 0..count-1 of Delta^(-m/2): row k is the t^k coefficient over s^k."""
    return power_rows(m, (-2, -2), UV_GAP, count)


def _double_pole(num: Dict[Tuple[int, int], Vector], drop: Dict[Tuple[int, int], Vector],
                 rows: List[Vector]) -> Dict[Tuple[int, int], Vector]:
    """The w1^e1 w2^e2 coefficients, e1 + e2 <= len(rows) + 1, of

        (num(w1, w2) R(w1) R(w2) - drop(w1, w2)) sum_{k>=0} (k+1) w1^{k+2} w2^{-k}

    with R the given rows and num, drop of degree at most 1 in each w_i.  On
    e1 + e2 = n + 2, first sums M(i, n-i) = [w1^i w2^{n-i}](num R R - drop)
    over i <= e1 - 2, and second sums first: M(e1-2-k, e2+k) is counted k+1
    times.  The entries with e2 < 2 are the boundary the caller checks.
    """
    R = [()] + rows  # R[i + 1] is row i; row -1 is zero
    table = {}
    for n in range(len(rows)):
        first, second = [0] * len(rows[n]), [0] * len(rows[n])
        for i in range(n + 1):
            j = n - i
            for (p, q), c in num.items():
                _add(first, convolve(c, convolve(R[i + 1 - p], R[j + 1 - q])))
            _add(first, drop.get((i, j), ()), -1)
            _add(second, first)
            table[i + 2, j] = tuple(second)
    return table


def narayana_one_point_law(n: int) -> LaurentPolynomial:
    """s^n u v sum_k N(n,k) u^{n-k} v^{k-1}: the stated x^{-n-1} coefficient of G_{0,1}."""
    return as_polynomial(n, _narayana_row(n))


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
        # (num R(t1) R(t2) - 1) / 2 times the double pole, with
        # num = 1 - s(u+v)(t1 + t2) + s^2 (u-v)^2 t1 t2 and R = Delta^(-1/2);
        # the table holds twice the t1^e1 t2^e2 coefficient, over s^{e1+e2-2}
        num = {**ONE, (1, 0): (-1, -1), (0, 1): (-1, -1), (1, 1): UV_GAP}
        table = _double_pole(num, ONE, delta_power_rows(1, order - 1))
        for (e1, e2), vec in table.items():
            if e2 < 2 and any(vec):
                raise AssertionError(f"double-pole subtraction left residue at exponents ({e1},{e2}): {vec}")
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
# Each identity but type B/C reads the rows of Delta^(-/+1/2) at s = 1 (so z = s t).


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


# (1 + b)^2 and (1 - b)^2 in ascending powers of b
TYPEB_FACTORS = ((1, 2, 1), (1, -2, 1))


def _check_typeb_gf(order: int) -> Iterator:
    # 1 / sqrt(1 - (2 + 2y) x + (1 - y)^2 x^2) with y = b^2 factors as
    # (1 - (1+b)^2 x)^(-1/2) (1 - (1-b)^2 x)^(-1/2), and (1 - c x)^(-1/2) =
    # sum_i C(2i,i) (c x / 4)^i, so the x^n coefficient is
    # 4^-n sum_{i+j=n} C(2i,i) C(2j,j) (1+b)^{2i} (1-b)^{2j}
    plus, minus = (list(accumulate([factor] * order, convolve, initial=(1,))) for factor in TYPEB_FACTORS)
    for n in range(order + 1):
        acc = [0] * (2 * n + 1)
        for i in range(n + 1):
            _add(acc, convolve(plus[i], minus[n - i]), comb(2 * i, i) * comb(2 * (n - i), n - i))
        in_b = _exact(acc, 4 ** n, f"type B row {n}")
        if any(in_b[1::2]):
            raise AssertionError(f"type B row {n} has odd powers of b: {in_b}")
        yield (("x", n), _in_y(_square_binomial_row(n)), _in_y(in_b[::2]))


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


def _monomials(name: str, p: int, expected, actual) -> Tuple[LaurentPolynomial, LaurentPolynomial]:
    """expected name^p and actual name^p, the two sides of one catalog check; a zero side is 0."""
    return LaurentPolynomial.monomial(expected, {name: p}), LaurentPolynomial.monomial(actual, {name: p})


def _check_wk_one(order: int) -> Iterator:
    worder = 2 * order
    # f = 1 - g0 w^2 - sqrt(1 - 2 g0 w^2) = w * G^{WK}_{0,1}(1/w): at t = g0/2
    # the w^j coefficient is (lin - row j) t^{j/2}; nonzero ones sit at w^{2n+4}
    lin, rows = (1, 0, -2), power_rows(-1, *QUADRATIC, worder + 1)
    for j in range(worder + 1):
        law = 0
        if j >= 4 and j % 2 == 0:
            n = (j - 4) // 2
            law = Fraction(odd_double_factorial(n), factorial(n + 2))
        c = (lin[j] if j < 3 else 0) - rows[j][0]
        yield (("w", j), *_monomials("g0", j // 2, law, Fraction(c, 2 ** (j // 2))))


def _check_wk_two(order: int) -> Iterator:
    wmax = 2 * order + 4
    # M sum_k (k+1) w1^{4+2k} w2^{-2k}, with M = (z1^2 + z2^2 - 4 g0) w1 w2 R(w1) R(w2)
    # - (w2/w1 + w1/w2) and R = (1 - 2 g0 w^2)^(-1/2).  In y = w^2 and t = g0/2,
    # w1 w2 M = (y1 + y2 - 8t y1 y2) R R - (y1 + y2) and the step-2 double pole is
    # the double pole in y, so y^e sits at w^{2e-1}
    ends = {(1, 0): (1,), (0, 1): (1,)}
    table = _double_pole({**ends, (1, 1): (-8,)}, ends, power_rows(1, *LINEAR, order + 2))
    for (e1, e2), vec in table.items():
        if e2 < 2 and any(vec):
            raise AssertionError(f"WK double-pole subtraction left residue at ({2 * e1 - 1},{2 * e2 - 1})")
    for j1 in range(wmax + 1):
        for j2 in range(3, wmax + 1 - j1):
            law = 0
            if j1 >= 3 and j1 % 2 == 1 and j2 % 2 == 1:
                k, l = (j1 - 3) // 2, (j2 - 3) // 2
                law = Fraction(odd_double_factorial(k) * odd_double_factorial(l),
                               factorial(k) * factorial(l) * (k + l + 1))
            c = table.get(((j1 + 1) // 2, (j2 + 1) // 2), (0,))[0] if j1 % 2 and j2 % 2 else 0
            p = (j1 + j2 - 4) // 2
            yield ((j1, j2), *_monomials("g0", p, law, c * Fraction(1, 2) ** p))


def _check_hermitian_one(order: int) -> Iterator:
    worder = 2 * order
    # f = (1 - sqrt(1 - 4t w^2)) / 2 = w * G_{0,1}(1/w); the moment <p_m> sits at w^{m+2} of f,
    # so even moments give Catalan numbers at even powers and odd moments vanish
    rows = power_rows(-1, *QUADRATIC, worder + 1)
    for j in range(worder + 1):
        law = catalan((j - 2) // 2) if j >= 2 and j % 2 == 0 else 0
        yield (("w", j), *_monomials("t", j // 2, law, Fraction(int(j == 0) - rows[j][0], 2)))


def _check_hermitian_two(order: int) -> Iterator:
    wmax = 2 * order + 2
    # (num R(w1) R(w2) - 1) / 2 times the double pole, num = 1 - 4t w1 w2, R = (1 - 4t w^2)^(-1/2)
    table = _double_pole({**ONE, (1, 1): (-4,)}, ONE, power_rows(1, *QUADRATIC, wmax - 1))
    for j1 in range(wmax + 1):
        for j2 in range(wmax + 1 - j1):
            law = 0
            if j1 >= 2 and j2 >= 2 and (j1 % 2 == j2 % 2):
                if j1 % 2 == 0:
                    m, n = (j1 - 2) // 2, (j2 - 2) // 2
                    law = Fraction(factorial(2 * m + 1) * factorial(2 * n + 1),
                                   factorial(m) ** 2 * factorial(n) ** 2 * (m + n + 1))
                else:
                    m, n = (j1 - 3) // 2, (j2 - 3) // 2
                    law = 4 * Fraction(factorial(2 * m + 1) * factorial(2 * n + 1),
                                       factorial(m) ** 2 * factorial(n) ** 2 * (m + n + 2))
            c = table.get((j1, j2), (0,))[0]
            yield ((j1, j2), *_monomials("t", (j1 + j2 - 2) // 2, law, Fraction(c, 2)))


def _check_even_coupling_one(order: int) -> Iterator:
    # f = (1 - 2t w - sqrt(1 - 4t w)) / 4
    lin, rows = (1, -2), power_rows(-1, *LINEAR, order + 1)
    for j in range(order + 1):
        law = Fraction(factorial(2 * j - 2), 2 * factorial(j - 1) * factorial(j)) if j >= 2 else 0
        c = (lin[j] if j < 2 else 0) - rows[j][0]
        yield (("w", j), *_monomials("t", j, law, Fraction(c, 4)))


def _check_even_coupling_two(order: int) -> Iterator:
    wmax = order + 2
    # (num R(w1) R(w2) - 1) / 2 times the double pole, num = 1 - 2t w1 - 2t w2, R = (1 - 4t w)^(-1/2)
    table = _double_pole({**ONE, (1, 0): (-2,), (0, 1): (-2,)}, ONE, power_rows(1, *LINEAR, wmax - 1))
    for j1 in range(wmax + 1):
        for j2 in range(wmax + 1 - j1):
            law = 0
            if j1 >= 2 and j2 >= 2:
                m, n = j1 - 2, j2 - 2
                law = (
                    Fraction(2, m + n + 2)
                    * Fraction(factorial(2 * m + 1), factorial(m) ** 2)
                    * Fraction(factorial(2 * n + 1), factorial(n) ** 2)
                )
            c = table.get((j1, j2), (0,))[0]
            yield ((j1, j2), *_monomials("t", j1 + j2 - 2, law, Fraction(c, 2)))


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
    yield ((1, 1, 1), as_polynomial(3, (0, 2, 0)), g3.coefficient((1, 1, 1)))
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
            yield ((a,), as_polynomial(a, expected), g.coefficient((a,)))


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
