"""Local expansions at the two branch points of the dessin spectral curve.

The x-projection is ramified over x = s(sqrt(u) +- sqrt(v))^2; near each
branch point the natural variable is xi = (x - x_branch)^{1/2}, in which
the curve reads

    y^2 (s(sqrt(u) +- sqrt(v))^2 + xi^2)^2 = +- xi^2 (4 sqrt(uv) s +- xi^2).

Solving for y gives an odd series in xi whose coefficients ("times") feed
intersection-theoretic expansions.  The coefficient ring needs fourth
roots and a square root of s, so this module owns a dedicated alphabet

    qs = s^{1/2},  qa = u^{1/4},  qb = v^{1/4},  r = sqrt(u) +- sqrt(v),

with r a formal symbol (its inverse powers appear in every coefficient;
nothing here ever needs the relation r^2 = (qa^2 +- qb^2)^2, because the
defining y^2 identity closes inside the Laurent ring as written above).
On the minus branch (-sqrt(v))^{1/2} = i v^{1/4} with the principal
branch, so those coefficients are Gaussian rationals; every checked
consequence is insensitive to the global sign of i.

The Bergman kernel written in the local coordinates of the plus branch
expands through the integer triangle

    T(n,k) = 2 C(n,k)^2 C(2n+2,n) / C(2n+2,2k+1),

whose generating identities (sqrt-product, same-branch kernel, and the
mixed-branch three-term split) are verified here as exact truncated-series
identities; the 1/(x-y)^2 singular part is cleared by cross-multiplying
before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, List, Tuple

from .coeffs import I
from .laurent import LaurentPolynomial, mul_trunc, unit_pow_trunc
from .report import VerificationReport, run_comparisons
from .series import TruncatedSeries

QS = LaurentPolynomial.variable("qs")
QA = LaurentPolynomial.variable("qa")
QB = LaurentPolynomial.variable("qb")
R = LaurentPolynomial.variable("r")

XI = "xi"

BRANCHES = ("plus", "minus")


def y_branch_series(branch: str, order: int) -> TruncatedSeries:
    """y expanded in the local coordinate xi, an odd series.

    Built from xi * prefactor * (1 +- xi^2/(4 sqrt(uv) s))^{1/2}
    / (1 + xi^2/(s r^2)), with prefactor (+-4 sqrt(uv) s)^{1/2} / (s r^2);
    the minus branch picks up the imaginary unit from the square root of
    the negative leading factor.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    if order < 1:
        raise ValueError("order must be at least 1")
    sign = 1 if branch == "plus" else -1
    unit = 1 if branch == "plus" else I
    prefactor = 2 * unit * QA * QB * LaurentPolynomial.monomial(1, {"qs": -1, "r": -2})

    inner = max(order - 1, 2)
    # (1 +- xi^2 / (4 sqrt(uv) s))^{1/2}
    quarter_inv = LaurentPolynomial.monomial(Fraction(sign, 4), {"qa": -2, "qb": -2, "qs": -2})
    sqrt_part = TruncatedSeries.from_map(XI, {0: 1, 2: quarter_inv}, inner).unit_pow(Fraction(1, 2))
    # 1 / (1 + xi^2 / (s r^2)) as an exact geometric series
    ratio_inv = LaurentPolynomial.monomial(1, {"qs": -2, "r": -2})
    geom = TruncatedSeries.from_map(
        XI, {2 * k: (-1) ** k * ratio_inv ** k for k in range(inner // 2 + 1)}, inner
    )
    return (sqrt_part * geom * prefactor).shift(1).truncated(order)


def times(branch: str, k: int) -> LaurentPolynomial:
    """The xi^k coefficient of the local y expansion (zero for even k)."""
    if k < 1:
        raise ValueError("times index must be >= 1")
    return y_branch_series(branch, k).coefficient(k)


def y_square_reconstruction_comparisons(branch: str, order: int) -> Iterator:
    """y^2 (s r^2 + xi^2)^2 against +- xi^2 (4 sqrt(uv) s +- xi^2), termwise."""
    sign = 1 if branch == "plus" else -1
    y = y_branch_series(branch, order)
    sr2 = QS ** 2 * R ** 2
    clearing = TruncatedSeries.from_map(XI, {0: sr2 * sr2, 2: 2 * sr2, 4: 1}, 2 * order)
    lhs = y * y * clearing
    four_abs = 4 * QA ** 2 * QB ** 2 * QS ** 2
    rhs = TruncatedSeries.from_map(
        XI, {2: sign * four_abs, 4: LaurentPolynomial.constant(1)}, 2 * order
    )
    for k in range(lhs.order + 1):
        yield ((branch, k), rhs.coefficient(k), lhs.coefficient(k))


# -- the T(n,k) triangle ------------------------------------------------------


@dataclass(frozen=True)
class TRow:
    n: int
    values: Tuple[Fraction, ...]


def t_number(n: int, k: int) -> Fraction:
    if not (0 <= k <= n):
        raise ValueError(f"T(n,k) needs 0 <= k <= n, got n={n}, k={k}")
    return Fraction(2 * comb(n, k) ** 2 * comb(2 * n + 2, n), comb(2 * n + 2, 2 * k + 1))


# the displayed rows T(0,.), T(1,.), T(2,.)
T_ROWS = ([1], [2, 2], [5, 6, 5])


def t_row(n: int) -> TRow:
    values = tuple(t_number(n, k) for k in range(n + 1))
    for val in values:
        if val.denominator != 1 or val <= 0:
            raise AssertionError(f"T({n},.) is not a positive integer row: {values}")
    return TRow(n, values)


# -- kernel identities ---------------------------------------------------------


def _kernel_tail(order: int, x: LaurentPolynomial, y: LaurentPolynomial) -> TruncatedSeries:
    """S(t) = sum_{n>=0} (n+2)(-t)^{n+1} sum_k T(n,k) x^{2k} y^{2n-2k}."""
    data = {}
    for n in range(order):
        row = LaurentPolynomial.zero()
        for k in range(n + 1):
            row = row + t_number(n, k) * x ** (2 * k) * y ** (2 * n - 2 * k)
        data[n + 1] = (n + 2) * Fraction((-1) ** (n + 1)) * row
    return TruncatedSeries.from_map("t", data, order)


def _check_sqrt_product(order: int) -> Iterator:
    a = LaurentPolynomial.variable("a")
    b = LaurentPolynomial.variable("b")
    lhs = 1 - TruncatedSeries.from_map("x", {0: 1, 1: -a}, order).sqrt() * TruncatedSeries.from_map(
        "x", {0: 1, 1: -b}, order
    ).sqrt()
    data = {1: Fraction(1, 2) * (a + b)}
    for n in range(order - 1):
        row = LaurentPolynomial.zero()
        for k in range(n + 1):
            row = row + t_number(n, k) * a ** k * b ** (n - k)
        prev = data.get(n + 2, LaurentPolynomial.zero())
        data[n + 2] = prev + Fraction(1, 8) * (b - a) ** 2 * row * Fraction(1, 4 ** n)
    rhs = TruncatedSeries.from_map("x", data, order)
    for j in range(order + 1):
        yield (("x", j), rhs.coefficient(j), lhs.coefficient(j))


def _radical_product(order: int, x: LaurentPolynomial, y: LaurentPolynomial) -> TruncatedSeries:
    return (
        TruncatedSeries.from_map("t", {0: 1, 1: 4 * x ** 2}, order)
        * TruncatedSeries.from_map("t", {0: 1, 1: 4 * y ** 2}, order)
    ).sqrt()


def _check_bergman_pp(order: int) -> Iterator:
    x = LaurentPolynomial.variable("x")
    y = LaurentPolynomial.variable("y")
    R_series = _radical_product(order, x, y)
    poly_part = TruncatedSeries.from_map("t", {0: x ** 2 + y ** 2, 1: 8 * x ** 2 * y ** 2}, order)
    lhs = poly_part + 2 * x * y * R_series
    rhs = R_series * ((x + y) ** 2 + ((x ** 2 - y ** 2) ** 2) * _kernel_tail(order, x, y))
    for j in range(order + 1):
        yield (("t", j), rhs.coefficient(j), lhs.coefficient(j))


def _check_bergman_mixed(order: int) -> Iterator:
    x = LaurentPolynomial.variable("x")
    y = LaurentPolynomial.variable("y")
    t = LaurentPolynomial.variable("t")
    R_series = _radical_product(order, x, y)
    lin = TruncatedSeries.from_map("t", {1: 4 * x * y}, order)
    lhs = (R_series * (R_series + lin) * (R_series + lin)).invert()
    d = TruncatedSeries.from_map("t", {0: 1, 1: 4 * x ** 2 + 4 * y ** 2}, order)
    inv_d2 = (d * d).invert()
    rhs = (
        R_series * inv_d2
        - TruncatedSeries.from_map("t", {1: 8 * x * y}, order) * inv_d2
        + TruncatedSeries.from_map("t", {2: 16 * x ** 2 * y ** 2}, order) * R_series.invert() * inv_d2
    )
    for j in range(order + 1):
        yield (("t", j), rhs.coefficient(j), lhs.coefficient(j))


LOCAL_IDENTITIES = {
    "sqrt-product": _check_sqrt_product,
    "bergman-pp": _check_bergman_pp,
    "bergman-mixed": _check_bergman_mixed,
}


def local_identity_names():
    return sorted(LOCAL_IDENTITIES)


def local_identity_check(name: str, order: int) -> VerificationReport:
    if name not in LOCAL_IDENTITIES:
        raise KeyError(f"unknown local identity {name!r}; valid names: {', '.join(local_identity_names())}")
    if order < 2:
        raise ValueError("local identity checks need order >= 2")
    return run_comparisons(f"local:{name}", {"name": name, "order": order}, LOCAL_IDENTITIES[name](order))


# -- Bergman kernel through the local coordinate substitution -------------------


def _z_local_series(order: int) -> List[LaurentPolynomial]:
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
            row = row + t_number(n, k) * X1 ** (2 * k) * X2 ** (2 * n - 2 * k)
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
