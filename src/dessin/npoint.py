"""Truncated n-point expansions in inverse powers of x-variables.

An ``NPointSeries`` holds the coefficients of

    G_{g,n}(x_1, ..., x_n) = sum  c(a_1, ..., a_n) / (x_1^{a_1+1} ... x_n^{a_n+1})

for all index tuples A with sum(a_i + 1) <= order.  Each coefficient is
s^{|A|} times an integer polynomial in (u, v) homogeneous of degree
d = |A| - n + 2 - 2g, stored as the Virasoro memo's graded vector: entry j
is the coefficient of u^{d-j} v^j.  All four routes (the Virasoro
recursion, the operator-form assembly, the closed forms and the
topological recursion) write these vectors, the setter treats any other
length as an internal fault, and comparison is tuple equality.  The polynomial is built only
when a coefficient is read, and ``as_vector``, its checked inverse, reads
JSON input only.  The expansion is symmetric, so coefficients are stored
once per sorted tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .laurent import LaurentPolynomial
from .series import SeriesWindowError

IndexTuple = Tuple[int, ...]
Vector = Tuple[int, ...]  # entry j is the coefficient of u^{d-j} v^j


def convolve(p: Sequence[int], q: Sequence[int]) -> Vector:
    """The product of two polynomials given by their coefficient vectors."""
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return tuple(out)


def _add(acc: List[int], vec: Vector, scale: int = 1) -> None:
    """acc += scale * vec; the empty vector (negative degree) is zero."""
    if vec:
        acc[:] = [a + scale * x for a, x in zip(acc, vec, strict=True)]


def index_tuples(n: int, order: int) -> Iterator[IndexTuple]:
    """Sorted nondecreasing tuples (a_1 <= ... <= a_n), a_i >= 1, sum(a_i + 1) <= order."""
    def rec(remaining: int, lo: int, budget: int):
        if remaining == 0:
            yield ()
            return
        # each of the remaining entries costs at least lo + 1
        for a in range(lo, budget - remaining + 1):
            if (a + 1) * remaining > budget:
                break
            for rest in rec(remaining - 1, a, budget - (a + 1)):
                yield (a,) + rest

    yield from rec(n, 1, order)


def as_polynomial(total: int, vec: Vector, divisor: int = 1) -> LaurentPolynomial:
    """(s^total / divisor) * sum_j vec[j] u^{d-j} v^j, with d = len(vec) - 1."""
    d = len(vec) - 1
    return LaurentPolynomial(("s", "u", "v"), {(total, d - j, j): Fraction(c, divisor) for j, c in enumerate(vec)})


def as_vector(total: int, degree: int, poly: LaurentPolynomial) -> Vector:
    """The checked inverse of ``as_polynomial``: poly must be s^total times an
    integer polynomial in (u, v) alone, homogeneous of the given degree."""
    vec = [0] * max(degree + 1, 0)
    for exps, c in poly.terms():
        e = dict(zip(poly.alphabet, exps))
        s, u, v = e.pop("s", 0), e.pop("u", 0), e.pop("v", 0)
        if any(e.values()) or s != total or min(u, v) < 0 or u + v != degree or getattr(c, "denominator", 0) != 1:
            raise ValueError(f"expected s^{total} times an integer polynomial in u, v of degree {degree}, got {poly}")
        vec[v] = int(c)
    return tuple(vec)


@dataclass
class NPointSeries:
    genus: int
    n: int
    order: int
    coefficients: Dict[IndexTuple, Vector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"an n-point series needs n >= 1, got n = {self.n}")
        if self.order < 2 * self.n:
            raise ValueError(f"order {self.order} cannot hold any {self.n}-point tuple (need >= {2 * self.n})")

    def degree(self, indices) -> int:
        """d = |A| - n + 2 - 2g, the (u,v)-degree of the coefficient at A."""
        return sum(indices) - self.n + 2 - 2 * self.genus

    def set_coefficient(self, indices, vec: Vector) -> None:
        """Every route writes its own vectors, so one that breaks the grading
        is an internal fault; ``from_json`` checks outside input first."""
        key = tuple(sorted(indices))
        if len(key) != self.n:
            raise AssertionError(f"expected {self.n} indices, got {indices!r}")
        d = self.degree(key)
        if len(vec) != max(d + 1, 0) or any(type(c) is not int for c in vec):
            raise AssertionError(f"{key} has degree {d}, so needs {max(d + 1, 0)} ints, got {vec!r}")
        if any(vec):
            self.coefficients[key] = tuple(vec)
        else:
            self.coefficients.pop(key, None)

    def vector(self, indices) -> Vector:
        key = tuple(sorted(indices))
        if len(key) != self.n or any(a < 1 for a in key):
            raise ValueError(f"bad index tuple {indices!r}")
        if sum(key) + self.n > self.order:
            raise SeriesWindowError(f"tuple {key} costs {sum(key) + self.n} but series order is {self.order}")
        return self.coefficients.get(key) or (0,) * max(self.degree(key) + 1, 0)

    def coefficient(self, indices) -> LaurentPolynomial:
        return as_polynomial(sum(indices), self.vector(indices))

    def keys(self) -> List[IndexTuple]:
        return sorted(self.coefficients)

    def first_difference(self, other: "NPointSeries") -> Optional[Tuple[IndexTuple, LaurentPolynomial, LaurentPolynomial]]:
        """First index tuple (in sorted order) where the two expansions differ,
        compared through the smaller of the two orders; None if they agree."""
        if self.n != other.n:
            raise ValueError("cannot compare expansions with different slot counts")
        order = min(self.order, other.order)
        for key in index_tuples(self.n, order):
            if self.coefficients.get(key) != other.coefficients.get(key):
                return key, self.coefficient(key), other.coefficient(key)
        return None

    def to_json(self) -> dict:
        """Each coefficient as ``LaurentPolynomial.to_json`` over (s, u, v) writes it, read
        straight off the vector: terms in increasing u-degree, zero terms left out."""
        def poly(key: IndexTuple, vec: Vector) -> dict:
            total, d = sum(key), len(vec) - 1
            return {"alphabet": ["s", "u", "v"],
                    "terms": [{"e": [total, d - j, j], "c": f"{vec[j]}/1"} for j in range(d, -1, -1) if vec[j]]}

        return {
            "genus": self.genus,
            "n": self.n,
            "order": self.order,
            "alphabet": ["s", "u", "v"],
            "coefficients": [{"indices": list(k), "poly": poly(k, self.coefficients[k])} for k in self.keys()],
        }

    @classmethod
    def from_json(cls, obj) -> "NPointSeries":
        out = cls(obj["genus"], obj["n"], obj["order"])
        for entry in obj["coefficients"]:
            key, poly = entry["indices"], LaurentPolynomial.from_json(entry["poly"])
            if len(key) != out.n:
                raise ValueError(f"expected {out.n} indices, got {key!r}")
            out.set_coefficient(key, as_vector(sum(key), out.degree(key), poly))
        return out
