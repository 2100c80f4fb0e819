"""Sparse multivariate Laurent polynomials over exact coefficients.

A polynomial is a map from integer exponent vectors (entries may be
negative) to nonzero coefficients, together with the ordered list of
symbol names the vector entries refer to.  Values are immutable and
canonical: no zero coefficient is ever stored, symbols that appear with
exponent 0 in every term are dropped, and the remaining alphabet is
sorted, so equality is plain structural equality and a polynomial built
two different ways compares equal.

Negative exponents make monomials invertible; nothing else is.  There is
deliberately no general rational-function type here: every division in
the engines above this module is either by a monomial or handled at the
truncated-series level.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .coeffs import Coefficient, GaussianRational, canonical_coeff, format_coeff, parse_coeff

Exponents = Tuple[int, ...]
ScalarLike = Union[int, Fraction, GaussianRational]


class LaurentPolynomial:
    __slots__ = ("_alphabet", "_terms", "_hash")

    def __init__(self, alphabet: Sequence[str], terms: Mapping[Exponents, object]):
        cleaned: Dict[Exponents, Coefficient] = {}
        width = len(alphabet)
        for exps, c in terms.items():
            c = canonical_coeff(c)
            if not c:
                continue
            if len(exps) != width:
                raise ValueError("exponent vector length does not match alphabet")
            cleaned[tuple(exps)] = c

        # canonical form: drop symbols unused by every term, sort what remains
        used = [i for i in range(width) if any(e[i] for e in cleaned)]
        if len(used) == width and _is_sorted_unique(alphabet):
            self._alphabet = tuple(alphabet)
            self._terms = cleaned
            self._hash = None
            return
        names = [alphabet[i] for i in used]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbols in alphabet {alphabet!r}")
        order = sorted(range(len(names)), key=lambda k: names[k])
        self._alphabet: Tuple[str, ...] = tuple(names[k] for k in order)
        self._terms: Dict[Exponents, Coefficient] = {}
        for exps, c in cleaned.items():
            key = tuple(exps[used[k]] for k in order)
            self._terms[key] = c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls((), {})

    @classmethod
    def constant(cls, c: ScalarLike) -> "LaurentPolynomial":
        return cls((), {(): c})

    @classmethod
    def variable(cls, name: str) -> "LaurentPolynomial":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def monomial(cls, coeff: ScalarLike, exps: Mapping[str, int]) -> "LaurentPolynomial":
        names = tuple(exps)
        return cls(names, {tuple(exps[n] for n in names): coeff})

    # -- accessors ---------------------------------------------------------

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return self._alphabet

    def terms(self) -> Iterator[Tuple[Exponents, Coefficient]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient_of(self, name: str, k: int) -> "LaurentPolynomial":
        """The coefficient of name**k as a polynomial in the other symbols."""
        if name not in self._alphabet:
            return self if k == 0 else LaurentPolynomial.zero()
        i = self._alphabet.index(name)
        rest = self._alphabet[:i] + self._alphabet[i + 1 :]
        picked = {e[:i] + e[i + 1 :]: c for e, c in self._terms.items() if e[i] == k}
        return LaurentPolynomial(rest, picked)

    def degree(self, name: str):
        """Max exponent of name, or None for the zero polynomial / absent symbol with zero poly."""
        if not self._terms:
            return None
        if name not in self._alphabet:
            return 0
        i = self._alphabet.index(name)
        return max(e[i] for e in self._terms)

    def valuation(self, name: str):
        if not self._terms:
            return None
        if name not in self._alphabet:
            return 0
        i = self._alphabet.index(name)
        return min(e[i] for e in self._terms)

    def exponent_range(self, name: str) -> Iterable[int]:
        lo, hi = self.valuation(name), self.degree(name)
        if lo is None:
            return ()
        return range(lo, hi + 1)

    def total_degree(self, names=None):
        if not self._terms:
            return None
        if names is None:
            idx = range(len(self._alphabet))
        else:
            idx = [self._alphabet.index(n) for n in names if n in self._alphabet]
        return max(sum(e[i] for i in idx) for e in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "LaurentPolynomial"):
        """Common alphabet and both term dicts re-indexed to it."""
        if self._alphabet == other._alphabet:
            return self._alphabet, self._terms, other._terms
        merged = tuple(sorted(set(self._alphabet) | set(other._alphabet)))
        return merged, _reindex(self, merged), _reindex(other, merged)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        alpha, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(alpha, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self._alphabet, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        alpha, a, b = self._aligned(other)
        if len(a) > len(b):
            a, b = b, a
        out: Dict[Exponents, Coefficient] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolynomial(alpha, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a scalar or by an invertible (single-term) polynomial."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            inv = Fraction(1) / other if not isinstance(other, GaussianRational) else 1 / other
            return self * inv
        if isinstance(other, LaurentPolynomial):
            return self * other.inverse_monomial()
        return NotImplemented

    def inverse_monomial(self) -> "LaurentPolynomial":
        if len(self._terms) != 1:
            raise ValueError("only monomials are invertible in a Laurent ring")
        ((e, c),) = self._terms.items()
        inv_c = Fraction(1) / c if not isinstance(c, GaussianRational) else 1 / c
        return LaurentPolynomial(self._alphabet, {tuple(-x for x in e): inv_c})

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse_monomial() ** (-n)
        result = LaurentPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._alphabet == other._alphabet and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._alphabet, frozenset(self._terms.items())))
        return self._hash

    # -- structure ---------------------------------------------------------

    def substitute(self, mapping: Mapping[str, object]) -> "LaurentPolynomial":
        """Simultaneous substitution of symbols by monomials or nonzero scalars.

        Each image is a single term, so each term maps to exactly one term;
        any other image raises ``ValueError``.
        """
        images = {}
        for name, value in mapping.items():
            mono = _coerce(value)
            if mono is NotImplemented or len(mono._terms) != 1:
                raise ValueError(f"substitution image for {name!r} is not a monomial: {value}")
            ((exps, coeff),) = mono._terms.items()
            images[name] = (dict(zip(mono._alphabet, exps)), coeff)
        passthrough = [n for n in self._alphabet if n not in images]
        target = sorted(set(passthrough) | {s for vec, _ in images.values() for s in vec})
        pos = {n: i for i, n in enumerate(target)}
        acc: Dict[Exponents, Coefficient] = {}
        for e, c in self._terms.items():
            vec = [0] * len(target)
            coeff = c
            for name, k in zip(self._alphabet, e):
                if k == 0:
                    continue
                if name in images:
                    mono_vec, mono_coeff = images[name]
                    for s, me in mono_vec.items():
                        vec[pos[s]] += k * me
                    if mono_coeff != 1:
                        coeff = coeff * _coeff_pow(mono_coeff, k)
                else:
                    vec[pos[name]] += k
            key = tuple(vec)
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
        return LaurentPolynomial(tuple(target), acc)

    def truncate(self, names: Sequence[str], max_total: int) -> "LaurentPolynomial":
        """Drop terms whose total degree over `names` exceeds max_total."""
        idx = [self._alphabet.index(n) for n in names if n in self._alphabet]
        kept = {e: c for e, c in self._terms.items() if sum(e[i] for i in idx) <= max_total}
        return LaurentPolynomial(self._alphabet, kept)

    # -- rendering / serialization ------------------------------------------

    def _sorted_terms(self, alphabet=None):
        if alphabet is None:
            alphabet = self._alphabet
            terms = self._terms
        else:
            alphabet = tuple(alphabet)
            terms = _reindex(self, alphabet)
        return alphabet, sorted(terms.items())

    def __str__(self):
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]))
        parts = []
        for e, c in ordered:
            syms = "*".join(
                f"{n}^{k}" if k != 1 else n for n, k in zip(self._alphabet, e) if k != 0
            )
            if isinstance(c, GaussianRational):
                cs = f"({format_coeff(c)})"
            elif c.denominator == 1:
                cs = str(c.numerator)
            else:
                cs = f"{c.numerator}/{c.denominator}"
            if not syms:
                parts.append(cs)
            elif cs == "1":
                parts.append(syms)
            elif cs == "-1":
                parts.append("-" + syms)
            else:
                parts.append(f"{cs}*{syms}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPolynomial({self})"

    def to_json(self, alphabet=None) -> dict:
        alphabet, ordered = self._sorted_terms(alphabet)
        return {
            "alphabet": list(alphabet),
            "terms": [{"e": list(e), "c": format_coeff(c)} for e, c in ordered],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "LaurentPolynomial":
        alphabet = tuple(obj["alphabet"])
        terms = {tuple(t["e"]): parse_coeff(t["c"]) for t in obj["terms"]}
        return cls(alphabet, terms)


def _is_sorted_unique(alphabet) -> bool:
    return all(alphabet[i] < alphabet[i + 1] for i in range(len(alphabet) - 1))


def _coeff_pow(c: Coefficient, k: int) -> Coefficient:
    if isinstance(c, Fraction):
        return c ** k
    out: Coefficient = Fraction(1)
    base = c if k >= 0 else 1 / c
    for _ in range(abs(k)):
        out = out * base
    return out


def _coerce(x):
    if isinstance(x, LaurentPolynomial):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return LaurentPolynomial.constant(x)
    return NotImplemented


def sum_polys(polys) -> "LaurentPolynomial":
    """Sum many polynomials with a single merge instead of pairwise re-adding."""
    polys = [p for p in polys if isinstance(p, LaurentPolynomial) and not p.is_zero()]
    if not polys:
        return LaurentPolynomial.zero()
    if len(polys) == 1:
        return polys[0]
    merged = tuple(sorted(set().union(*(p.alphabet for p in polys))))
    acc: Dict[Exponents, Coefficient] = {}
    for p in polys:
        for e, c in _reindex(p, merged).items():
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
    return LaurentPolynomial(merged, acc)


def _reindex(p: LaurentPolynomial, alphabet: Tuple[str, ...]) -> Dict[Exponents, Coefficient]:
    pos = {}
    for n in p.alphabet:
        if n not in alphabet:
            raise ValueError(f"symbol {n!r} not covered by target alphabet {alphabet!r}")
        pos[n] = alphabet.index(n)
    out: Dict[Exponents, Coefficient] = {}
    for e, c in p.terms():
        vec = [0] * len(alphabet)
        for n, k in zip(p.alphabet, e):
            vec[pos[n]] = k
        out[tuple(vec)] = c
    return out


def lp_mul(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Exact canonical product (alphabets auto-merged)."""
    return p * q


def binom_fraction(r: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient r(r-1)...(r-k+1)/k!."""
    out = Fraction(1)
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out


def mul_trunc(p: LaurentPolynomial, q: LaurentPolynomial, names: Sequence[str], max_total: int) -> LaurentPolynomial:
    """Product truncated to total degree <= max_total over `names`."""
    return (p.truncate(names, max_total) * q.truncate(names, max_total)).truncate(names, max_total)


def unit_pow_trunc(p: LaurentPolynomial, r: Fraction, names: Sequence[str], max_total: int) -> LaurentPolynomial:
    """(1 + e)**r truncated, where e = p - 1 must have positive valuation over `names`.

    r may be any exact rational; this covers truncated inverses (r = -1),
    square roots (r = 1/2) and the fractional powers of discriminant
    factors that the closed forms need.
    """
    e = (p - 1).truncate(names, max_total)
    if not e.is_zero():
        idx = [e.alphabet.index(n) for n in names if n in e.alphabet]
        if any(sum(exp[i] for i in idx) <= 0 for exp, _ in e.terms()):
            raise ValueError("unit_pow_trunc needs constant term exactly 1 in the truncation variables")
    out = LaurentPolynomial.constant(1)
    power = LaurentPolynomial.constant(1)
    for k in range(1, max_total + 1):
        power = mul_trunc(power, e, names, max_total)
        if power.is_zero():
            break
        out = out + binom_fraction(Fraction(r), k) * power
    return out
