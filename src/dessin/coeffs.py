"""Exact coefficient arithmetic: rationals and Gaussian rationals.

Rational coefficients are plain ``fractions.Fraction`` values (always in
lowest terms, positive denominator, zero is 0/1).  ``GaussianRational``
adjoins the imaginary unit for the handful of places where a square root
of a negative quantity appears; it is closed under +, -, * and /.

Polynomial code treats a coefficient as ``Fraction | GaussianRational``
and normalizes a Gaussian value with zero imaginary part back down to a
``Fraction`` (see :func:`canonical_coeff`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """re + im*i with exact rational re, im."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self + (-other if isinstance(other, GaussianRational) else GaussianRational(-_as_fraction(other), Fraction(0)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by Gaussian zero")
            return self * GaussianRational(other.re / n, -other.im / n)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(_as_fraction(other), Fraction(0)) / self
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))


I = GaussianRational(Fraction(0), Fraction(1))

Coefficient = Union[Fraction, GaussianRational]


def canonical_coeff(c) -> Coefficient:
    """Normalize: ints become Fractions, real Gaussians become Fractions."""
    if isinstance(c, GaussianRational):
        return c.re if c.im == 0 else c
    return _as_fraction(c)


def format_coeff(c: Coefficient) -> str:
    """Render as "p/q" or "p/q+r/s*i" (denominator always written)."""
    if isinstance(c, GaussianRational):
        sign = "+" if c.im >= 0 else "-"
        return f"{_frac_str(c.re)}{sign}{_frac_str(abs(c.im))}*i"
    return _frac_str(c)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_coeff(text: str) -> Coefficient:
    """Inverse of :func:`format_coeff`."""
    text = text.strip()
    if text.endswith("*i"):
        body = text[:-2]
        # split at the sign separating the two fractions (skip a leading sign)
        for pos in range(1, len(body)):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re = Fraction(body[:pos])
                im = Fraction(body[pos + 1 :]) * (1 if body[pos] == "+" else -1)
                return canonical_coeff(GaussianRational(re, im))
        raise ValueError(f"malformed Gaussian coefficient: {text!r}")
    return Fraction(text)
