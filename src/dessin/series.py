"""Truncated univariate Laurent series with polynomial coefficients.

A ``TruncatedSeries`` is an expansion in one designated symbol whose
coefficients are :class:`LaurentPolynomial` values in any other symbols.
The series stores the window of exponents it knows exactly: a finite
minimum exponent (possibly negative) and an inclusive maximum ``order``.

Truncation discipline is strict.  Every binary operation returns the
window on which the result is provably exact (for products this is
``min(f.order + g.min_exp, g.order + f.min_exp)``), and reading a
coefficient beyond the valid order raises :class:`SeriesWindowError`
instead of silently returning garbage.  That discipline is what makes the
series reads exact rather than approximate: every coefficient read (a
residue is the one at exponent -1) comes from a window that provably
covers it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Mapping, Tuple

from .laurent import LaurentPolynomial, binom_fraction, sum_polys


class SeriesError(ValueError):
    pass


class SeriesWindowError(SeriesError):
    """A coefficient beyond the valid truncation window was requested."""


def _as_poly(x) -> LaurentPolynomial:
    return x if isinstance(x, LaurentPolynomial) else LaurentPolynomial.constant(x)


class TruncatedSeries:
    __slots__ = ("variable", "min_exp", "order", "_coeffs")

    def __init__(self, variable: str, min_exp: int, order: int, coeffs):
        if order < min_exp:
            raise SeriesError(f"empty window [{min_exp}, {order}]")
        coeffs = [_as_poly(c) for c in coeffs]
        if len(coeffs) != order - min_exp + 1:
            raise SeriesError("coefficient list does not fill the window")
        for c in coeffs:
            if variable in c.alphabet:
                raise SeriesError(f"coefficient contains the series variable {variable!r}")
        # trim exact leading zeros so min_exp is the true valuation bound
        while coeffs and min_exp < order and coeffs[0].is_zero():
            coeffs.pop(0)
            min_exp += 1
        self.variable = variable
        self.min_exp = min_exp
        self.order = order
        self._coeffs: Tuple[LaurentPolynomial, ...] = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_map(cls, variable: str, coeffs: Mapping[int, object], order: int, min_exp=None) -> "TruncatedSeries":
        coeffs = {k: c for k, c in coeffs.items() if not _as_poly(c).is_zero()}
        if any(k > order for k in coeffs):
            raise SeriesError("coefficient beyond the stated order")
        if coeffs:
            lo = min(coeffs)
            if min_exp is None:
                min_exp = lo
            elif lo < min_exp:
                raise SeriesError("coefficient below stated minimum exponent")
        elif min_exp is None:
            min_exp = order
        min_exp = min(min_exp, order)
        data = [coeffs.get(k, 0) for k in range(min_exp, order + 1)]
        return cls(variable, min_exp, order, data)

    @classmethod
    def zero(cls, variable: str, order: int) -> "TruncatedSeries":
        return cls.from_map(variable, {}, order)

    @classmethod
    def one(cls, variable: str, order: int) -> "TruncatedSeries":
        return cls.from_map(variable, {0: 1}, order)

    @classmethod
    def monomial(cls, variable: str, k: int, order: int, coeff=1) -> "TruncatedSeries":
        return cls.from_map(variable, {k: coeff}, order)

    @classmethod
    def from_polynomial(cls, poly: LaurentPolynomial, variable: str, order: int) -> "TruncatedSeries":
        """Exact series of a polynomial, split by the exponent of `variable`."""
        if variable not in poly.alphabet:
            return cls.from_map(variable, {0: poly}, order)
        deg = poly.degree(variable)
        if deg is not None and deg > order:
            raise SeriesError(f"polynomial degree {deg} exceeds stated order {order}")
        coeffs = {k: poly.coefficient_of(variable, k) for k in poly.exponent_range(variable)}
        return cls.from_map(variable, coeffs, order)

    # -- accessors ---------------------------------------------------------

    def coefficient(self, k: int) -> LaurentPolynomial:
        if k > self.order:
            raise SeriesWindowError(
                f"coefficient of {self.variable}^{k} requested but series is only valid through order {self.order}"
            )
        if k < self.min_exp:
            return LaurentPolynomial.zero()
        return self._coeffs[k - self.min_exp]

    def items(self) -> Iterator[Tuple[int, LaurentPolynomial]]:
        for k, c in enumerate(self._coeffs, start=self.min_exp):
            if not c.is_zero():
                yield k, c

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def as_polynomial(self) -> LaurentPolynomial:
        """Forget the truncation and return the stored terms as a polynomial."""
        out = LaurentPolynomial.zero()
        for k, c in self.items():
            out = out + c * LaurentPolynomial.monomial(1, {self.variable: k})
        return out

    def matches(self, other: "TruncatedSeries", through=None) -> bool:
        if self.variable != other.variable:
            raise SeriesError("different series variables")
        hi = min(self.order, other.order)
        if through is not None:
            hi = min(hi, through)
        lo = min(self.min_exp, other.min_exp)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, hi + 1))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.min_exp == other.min_exp
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.variable, self.min_exp, self.order, self._coeffs))

    def __str__(self):
        bits = [f"({c})*{self.variable}^{k}" for k, c in self.items()] or ["0"]
        return " + ".join(bits) + f" + O({self.variable}^{self.order + 1})"

    __repr__ = __str__

    # -- arithmetic --------------------------------------------------------

    def _check_var(self, other: "TruncatedSeries"):
        if self.variable != other.variable:
            raise SeriesError(f"series variables differ: {self.variable!r} vs {other.variable!r}")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_var(other)
            order = min(self.order, other.order)
            lo = min(self.min_exp, other.min_exp)
            data = {k: self.coefficient(k) + other.coefficient(k) for k in range(lo, order + 1)}
            return TruncatedSeries.from_map(self.variable, data, order, min_exp=lo)
        return self + TruncatedSeries.from_map(self.variable, {0: other}, self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.variable, self.min_exp, self.order, [-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -_as_poly(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_var(other)
            order = min(self.order + other.min_exp, other.order + self.min_exp)
            lo = self.min_exp + other.min_exp
            if order < lo:
                raise SeriesError("product window is empty; widen the operand truncations")
            buckets: Dict[int, list] = {}
            for i, ci in enumerate(self._coeffs, start=self.min_exp):
                if ci.is_zero():
                    continue
                for j, cj in enumerate(other._coeffs, start=other.min_exp):
                    k = i + j
                    if k > order or cj.is_zero():
                        continue
                    buckets.setdefault(k, []).append(ci * cj)
            out = {k: sum_polys(parts) for k, parts in buckets.items()}
            return TruncatedSeries.from_map(self.variable, out, order, min_exp=lo)
        scalar = _as_poly(other)
        if self.variable in scalar.alphabet:
            raise SeriesError("scalar multiplier contains the series variable; use from_polynomial and *")
        return TruncatedSeries(self.variable, self.min_exp, self.order, [c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by variable**k (shifts the window)."""
        return TruncatedSeries(self.variable, self.min_exp + k, self.order + k, self._coeffs)

    def differentiate(self) -> "TruncatedSeries":
        data = {k - 1: k * c for k, c in self.items() if k != 0}
        return TruncatedSeries.from_map(self.variable, data, self.order - 1, min_exp=self.min_exp - 1)

    def truncated(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise SeriesWindowError("cannot extend a truncated series")
        if order < self.min_exp:
            return TruncatedSeries(self.variable, order, order, [LaurentPolynomial.zero()])
        return TruncatedSeries(self.variable, self.min_exp, order, self._coeffs[: order - self.min_exp + 1])

    # -- unit-series calculus ------------------------------------------------

    def _require_unit(self, what: str):
        if self.min_exp == 0 and self.coefficient(0) == LaurentPolynomial.constant(1):
            return
        c0 = self.coefficient(0) if self.min_exp <= 0 <= self.order else LaurentPolynomial.zero()
        raise SeriesError(f"{what} requires constant term exactly 1, got series starting at "
                          f"{self.variable}^{self.min_exp} with c0 = {c0}")

    def invert(self) -> "TruncatedSeries":
        self._require_unit("series inversion")
        n = self.order
        b = [LaurentPolynomial.constant(1)]
        for m in range(1, n + 1):
            acc = LaurentPolynomial.zero()
            for k in range(1, m + 1):
                a_k = self.coefficient(k)
                if not a_k.is_zero():
                    acc = acc + a_k * b[m - k]
            b.append(-acc)
        return TruncatedSeries(self.variable, 0, n, b)

    def sqrt(self) -> "TruncatedSeries":
        self._require_unit("series square root")
        n = self.order
        g = [LaurentPolynomial.constant(1)]
        half = Fraction(1, 2)
        for m in range(1, n + 1):
            acc = self.coefficient(m)
            for k in range(1, m):
                acc = acc - g[k] * g[m - k]
            g.append(half * acc)
        return TruncatedSeries(self.variable, 0, n, g)

    def unit_pow(self, r: Fraction) -> "TruncatedSeries":
        """(1 + e)**r for any exact rational r, where e = self - 1 has valuation >= 1."""
        self._require_unit("fractional power")
        e = self - 1
        out = TruncatedSeries.one(self.variable, self.order)
        power = TruncatedSeries.one(self.variable, self.order)
        r = Fraction(r)
        for k in range(1, self.order + 1):
            power = power * e
            if power.is_zero():
                break
            out = out + binom_fraction(r, k) * power
        return out

    def compose(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute g into self; g must have strictly positive valuation."""
        self._check_var_free(g)
        if self.min_exp < 0:
            raise SeriesError("composition target has negative exponents")
        if g.min_exp < 1:
            raise SeriesError("substituted series must have strictly positive valuation")
        v = g.min_exp
        order = min(g.order, (self.order + 1) * v - 1)
        g = g.truncated(order)
        result = TruncatedSeries.zero(g.variable, order)
        for k in range(self.order, -1, -1):
            result = (result * g).truncated(order) if not result.is_zero() else result
            c = self.coefficient(k)
            if not c.is_zero():
                result = result + c
        return result.truncated(order)

    def _check_var_free(self, g: "TruncatedSeries"):
        for c in g._coeffs:
            if self.variable in c.alphabet:
                raise SeriesError("substituted series coefficients mention the outer variable")


# -- free-function entry points -----------------------------------------------


def series_sqrt(f: TruncatedSeries) -> TruncatedSeries:
    return f.sqrt()


def series_invert(f: TruncatedSeries) -> TruncatedSeries:
    return f.invert()


def series_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return f.compose(g)


def residue_coefficient(f: TruncatedSeries) -> LaurentPolynomial:
    """Coefficient of exponent -1; errors if the window does not cover it."""
    if f.min_exp > -1 or f.order < -1:
        raise SeriesWindowError(
            f"residue needs the window to cover exponent -1, got [{f.min_exp}, {f.order}]"
        )
    return f.coefficient(-1)
