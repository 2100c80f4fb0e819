"""Local expansions at the two branch points of the dessin spectral curve.

The x-projection is ramified over x = s(sqrt(u) +- sqrt(v))^2; near each
branch point the natural variable is xi = (x - x_branch)^{1/2}, in which
the curve reads

    y^2 (s(sqrt(u) +- sqrt(v))^2 + xi^2)^2 = +- xi^2 (4 sqrt(uv) s +- xi^2).

Solving for y gives an odd series in xi whose coefficients ("times") feed
intersection-theoretic expansions.  They live over the alphabet

    qs = s^{1/2},  qa = u^{1/4},  qb = v^{1/4},  r = sqrt(u) +- sqrt(v),

with r a formal symbol (the y^2 identity closes without r^2 = (qa^2 +- qb^2)^2).
On the minus branch (-sqrt(v))^{1/2} = i v^{1/4}, so those coefficients are
Gaussian rationals; no checked consequence depends on the sign of i.

The Bergman kernel in the plus-branch coordinates expands through the integer
triangle T(n,k) = 2 C(n,k)^2 C(2n+2,n) / C(2n+2,2k+1), with the identities

    sqrt-product   1 - sqrt((1-ax)(1-bx)) = (a+b) x/2 + sum_n (b-a)^2 T_n(a,b) x^{n+2} / (8 4^n)
    bergman-pp     x^2 + y^2 + 8 x^2 y^2 t + 2xy R = R ((x+y)^2 + (x^2-y^2)^2 S(t))
    bergman-mixed  1 / (R (R + 4xyt)^2) = (R - 8xyt + 16 x^2 y^2 t^2 / R) / D^2

where T_n(a,b) = sum_k T(n,k) a^k b^{n-k}, R = sqrt((1 + 4x^2 t)(1 + 4y^2 t)),
D = 1 + 4(x^2 + y^2) t and S is the kernel tail; the 1/(x-y)^2 singular part is
cleared by cross-multiplying.  As in ``closedforms``, every expansion is read off
the integer rows of ``power_rows``, graded vectors multiplied by ``convolve``: the
y coefficients are sums of monomials over the rows of (1 +- 4w)^{1/2}, sqrt-product
is scaled x -> 4x so that both sides are integer rows, and bergman-mixed is checked
multiplied through by R (R + 4xyt)^2, against 1.  A value becomes a polynomial only
where it is compared, so a failure still prints one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from typing import Dict, Iterator, List, Sequence, Tuple

from .closedforms import power_rows
from .coeffs import GaussianRational
from .laurent import LaurentPolynomial
from .npoint import Vector, _add, convolve
from .report import VerificationReport, run_comparisons

BRANCHES = ("plus", "minus")
ALPHABET = ("qa", "qb", "qs", "r")


def y_branch_series(branch: str, order: int) -> Dict[int, LaurentPolynomial]:
    """y expanded in the local coordinate xi: {k: the xi^k coefficient} for odd k <= order.

    y = xi * prefactor * (1 +- 4w)^{1/2} / (1 + xi^2/(s r^2)) with
    w = xi^2 / (16 sqrt(uv) s) and prefactor (+-4 sqrt(uv) s)^{1/2} / (s r^2);
    the minus branch picks up the imaginary unit from the square root of the
    negative leading factor.  With c_m the w^m row of the radical, the
    xi^{2j+1} coefficient is the sum over m <= j of the monomials

        2 c_m (-1)^(j-m) / 16^m  qa^(1-2m) qb^(1-2m) qs^(-1-2j) r^(-2-2(j-m)),

    all distinct, so no coefficient vanishes.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    if order < 1:
        raise ValueError("order must be at least 1")
    sign = 1 if branch == "plus" else -1
    half = power_rows(-1, (4 * sign,), (), (order + 1) // 2)  # (1 +- 4w)^{1/2}

    def monomials(j: int):
        for m in range(j + 1):
            exps = (1 - 2 * m, 1 - 2 * m, -1 - 2 * j, 2 * (m - j) - 2)  # over ALPHABET
            c = Fraction(2 * (-1) ** (j - m) * half[m][0], 16 ** m)
            yield exps, c if sign > 0 else GaussianRational(0, c)

    return {2 * j + 1: LaurentPolynomial(ALPHABET, dict(monomials(j))) for j in range((order + 1) // 2)}


def times(branch: str, k: int) -> LaurentPolynomial:
    """The xi^k coefficient of the local y expansion (zero for even k)."""
    if k < 1:
        raise ValueError("times index must be >= 1")
    return y_branch_series(branch, k).get(k, LaurentPolynomial.zero())


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


# -- kernel identities on integer rows ------------------------------------------

XY = ("x", "y")
# (1 + 4x^2 t)(1 + 4y^2 t) = 1 + a1 t + a2 t^2, as the (a1, a2) that power_rows takes
RADICAND = ((4, 0, 4), (0, 0, 16, 0, 0))


def _graded(names: Tuple[str, str], vec: Sequence[int], divisor: int = 1) -> LaurentPolynomial:
    """sum_i vec[i] p^(d-i) q^i / divisor over names (p, q), with d = len(vec) - 1."""
    d = len(vec) - 1
    return LaurentPolynomial(names, {(d - i, i): Fraction(c, divisor) for i, c in enumerate(vec)})


def _times(p: Sequence[Vector], q: Sequence[Vector]) -> List[Vector]:
    """The product of two series given by graded rows, through the shorter one's last row."""
    out = []
    for j in range(min(len(p), len(q))):
        acc = list(convolve(p[0], q[j]))
        for i in range(1, j + 1):
            _add(acc, convolve(p[i], q[j - i]))
        out.append(tuple(acc))
    return out


def _t_vector(n: int) -> Vector:
    """T_n(a, b) = sum_k T(n,k) a^k b^(n-k) as a graded vector: entry i is the coefficient of a^(n-i) b^i."""
    return tuple(int(v) for v in reversed(t_row(n).values))


def _kernel_tail(order: int) -> List[Vector]:
    """Entry n is the t^(n+1) coefficient of the kernel tail

        S(t) = sum_{n>=0} (n+2)(-t)^{n+1} sum_k T(n,k) x^{2k} y^{2n-2k},

    a graded vector of degree 2n in (x, y)."""
    tail = []
    for n in range(order):
        row = [0] * (2 * n + 1)
        row[::2] = [(n + 2) * (-1) ** (n + 1) * c for c in _t_vector(n)]
        tail.append(tuple(row))
    return tail


def _check_sqrt_product(order: int) -> Iterator:
    # scaled x -> 4x, sqrt((1-4ax)(1-4bx)) has integer rows: row j is 4^j times the x^j
    # coefficient, and the scaled right side is 2(a+b) at j = 1 and 2(b-a)^2 T_(j-2) above
    for j, row in enumerate(power_rows(-1, (-4, -4), (0, 16, 0), order + 1)):
        actual = [int(j == 0) - c for c in row]
        if j < 2:
            expected = ((0,), (2, 2))[j]
        else:
            expected = tuple(2 * c for c in convolve((1, -2, 1), _t_vector(j - 2)))
        yield (("x", j), _graded(("a", "b"), expected, 4 ** j), _graded(("a", "b"), actual, 4 ** j))


def _check_bergman_pp(order: int) -> Iterator:
    # the t^j coefficient of either side has degree 2j + 2 in (x, y)
    R = power_rows(-1, *RADICAND, order + 1)
    factor = [(1, 2, 1)] + [convolve((1, 0, -2, 0, 1), row) for row in _kernel_tail(order)]
    for j, (row, rhs) in enumerate(zip(R, _times(R, factor))):
        lhs = [2 * c for c in convolve((0, 1, 0), row)]
        if j < 2:
            _add(lhs, ((1, 0, 1), (0, 0, 8, 0, 0))[j])
        yield (("t", j), _graded(XY, rhs), _graded(XY, lhs))


def _check_bergman_mixed(order: int) -> Iterator:
    # the t^j coefficient of every factor has degree 2j in (x, y); lin = 4xyt
    R, inv_R = power_rows(-1, *RADICAND, order + 1), power_rows(1, *RADICAND, order + 1)
    inv_D2 = power_rows(4, RADICAND[0], (), order + 1)
    lin = [(0,) * (2 * k + 1) for k in range(order + 1)]
    lin[1] = (0, 4, 0)
    rhs = [list(row) for row in _times(R, inv_D2)]
    for acc, once, twice in zip(rhs, _times(lin, inv_D2), _times(_times(lin, lin), _times(inv_R, inv_D2))):
        _add(acc, once, -2)
        _add(acc, twice)
    plus = [tuple(map(add, r, l)) for r, l in zip(R, lin)]
    for j, row in enumerate(_times(_times(R, _times(plus, plus)), rhs)):
        yield (("t", j), _graded(XY, (int(j == 0),) + (0,) * (2 * j)), _graded(XY, row))


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
