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
the two poles are taken in closed form.  Writing K-hat(z0, z) =
kappa(z) / (z (z0^2 - z^2)) with kappa(z) = (alpha z^2 - beta)(z^2 - 1)^2 /
(32 a^2 b^2), the expansions 1/(z0^2 - z^2) = sum_k z^2k z0^(-2k-2) at
z = 0 and -sum_k z0^2k z^(-2k-2) at z = infinity give

    (Res_{z->0} + Res_{z->infinity}) z^j dz / (z0^2 - z^2) = z0^(j-1)  (j odd; 0 for j even),

so an integrand F contributes kappa(z0) F(z0) / z0^2.  A Bergman factor
1/(z - sigma w)^2 expands as sum_p (p+1) sigma^p z^p w^(-p-2) at z = 0 and
sum_p (p+1) sigma^p w^p z^(-p-2) at infinity, so each monomial of kappa F / z
contracts against a memoized finite table of the same two residues; no series
is truncated.

kappa is linear in (alpha, beta) over (alpha-beta)^2, so a form is stored by slot orbits, {(j, h_1 <= ..
<= h_n): c} over one power of two for alpha^(chi-j) beta^j / (alpha-beta)^(2 chi), chi = 2g-2+n: j is the
power of beta in both charts (the dual kappa maps j to 1 - j), the h_i halved slot exponents (an odd one
is an EOInvariantError) in [-(3g-2+n), 3g-3+n].  Evenness, symmetry and homogeneity hold by the shape of
the key; check_invariants checks its ranges and order.  Only printing expands a form in (a, b).
Integrands are keyed (j, h_z, *sorted spectators); the residue step keeps the
outputs whose z1 exponent is the smallest of the orbit.  Orbits are expanded
only where a slot is singled out (w(z, z, rest), the factorizations and the
Bergman insertions, through by_first_slot) and for printing (sorted_blocks).

The x-picture contracts the orbits one slot at a time against one integer table:
the x^{-k-1} coefficient of z(x)^{2e} dz/dx, s^k times a homogeneous polynomial
of degree k in (alpha, beta), an int row over a power of two, packed into one integer.
Only nondecreasing index prefixes are contracted, each partial sum keyed by the orbit of
the open slots.  A finished tuple becomes the graded (u, v) vector of the Virasoro side.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, islice, product
from math import comb, factorial, prod
from operator import sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .coeffs import format_coeff
from .laurent import LaurentPolynomial
from .npoint import NPointSeries, Vector, _add, convolve, index_tuples
from .report import VerificationReport, run_comparisons
from .series import TruncatedSeries
from .virasoro import VirasoroEngine

S = LaurentPolynomial.variable("s")

# alpha = (a - b)^2 and beta = (a + b)^2 as integer rows over (a^2, ab, b^2): every alpha and beta below
GAPS = ((1, -2, 1), (1, 2, 1))
ALPHA, BETA = (LaurentPolynomial(("a", "b"), {(2 - i, i): c for i, c in enumerate(row)}) for row in GAPS)
KAPPA_SHIFT = 1  # the kernel numerator over 2 (alpha - beta)^2


class EOInvariantError(AssertionError):
    """A computed differential violated evenness, symmetry or homogeneity, or
    its x-picture is not an integer polynomial in u, v."""


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
    """w_{g,n} (W_{g,n} = w_{g,n} dz_1 ... dz_n) by slot orbits: {(j, h_1 <= .. <= h_n): c} gives alpha^(chi-j)
    beta^j / (alpha-beta)^(2 chi), chi = 2g-2+n, times each distinct ordering of z_1^2h_1 .. z_n^2h_n c / 2^shift."""

    g: int
    n: int
    terms: Dict[tuple, int]
    shift: int

    @cached_property
    def poly(self) -> LaurentPolynomial:
        degree, (terms, shift) = -2 * (2 * self.g - 2 + self.n), self.ab_terms()
        return LaurentPolynomial(("a", "b", *slot_names(self.n)), {
            (ea, degree - ea, *exps): Fraction(c, 1 << shift)
            for (ea, *hs), c in terms.items() for exps in _arrangements(tuple(2 * h for h in hs))})

    def ab_terms(self) -> Tuple[Dict[tuple, int], int]:
        """({(e_a, h_1 <= .. <= h_n): c}, k): the orbits over (a, b), c / 2^k, e_b = -2 chi - e_a."""
        chi = 2 * self.g - 2 + self.n
        rows: Dict[tuple, List[int]] = defaultdict(lambda: [0] * (chi + 1))
        for (j, *hs), c in self.terms.items():
            rows[tuple(hs)][j] += c
        return {(-i, *hs): c for hs, row in rows.items() for i, c in enumerate(_to_ab(row)) if c}, self.shift + 4 * chi

    @cached_property
    def by_first_slot(self) -> Dict[tuple, int]:
        """z1 singled out: {(j, h_1, *sorted other slots): c} for each distinct h_1 of each orbit."""
        return {(key[0], h) + rest: c for key, c in self.terms.items() for h, rest in _picks(key[1:])}

    def evaluated(self, args: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
        """Substitute the slot variables z1..zn by the given monomials."""
        if len(args) != self.n:
            raise ValueError(f"form has {self.n} slots, got {len(args)} arguments")
        return self.poly.substitute(dict(zip(slot_names(self.n), args)))

    def check_invariants(self) -> None:
        """Each key is an orbit representative, j in [0, chi] and n nondecreasing slot exponents in
        [-(3g-2+n), 3g-3+n], the Eynard-Orantin pole bound; the rest holds by shape."""
        chi, top = 2 * self.g - 2 + self.n, 3 * self.g - 3 + self.n
        for key in self.terms:
            if len(key) != self.n + 1 or list(key[1:]) != sorted(key[1:]) or not (
                    0 <= key[0] <= chi and -top - 1 <= key[1] and key[-1] <= top):
                raise EOInvariantError(f"w_{{{self.g},{self.n}}} key {key} is not an orbit representative "
                                       f"in [0, {chi}] x [{-top - 1}, {top}]^n")

    def sorted_blocks(self) -> Iterator[List[tuple]]:
        """Each monomial as (e_a, e_b, e_1, .., e_n, "p/q"), in LaurentPolynomial.to_json's order:
        one sorted block per leading pair (e_a, e_1), the blocks in order."""
        degree, blocks, (terms, shift) = -2 * (2 * self.g - 2 + self.n), defaultdict(list), self.ab_terms()
        for key, c in terms.items():
            for h, rest in _picks(key[1:]):
                blocks[key[0], h].append((rest, format_coeff(Fraction(c, 1 << shift))))
        for ea, h in sorted(blocks):
            head = (ea, degree - ea, 2 * h)
            block = [head + exps + (text,) for rest, text in blocks.pop((ea, h))
                     for exps in _arrangements(tuple(2 * x for x in rest))]
            block.sort()
            yield block

    def to_json(self) -> dict:
        """LaurentPolynomial.to_json's layout over (a, b, z1, .., zn), without building the polynomial."""
        terms = [{"e": list(term[:-1]), "c": term[-1]} for block in self.sorted_blocks() for term in block]
        return {"g": self.g, "n": self.n, "form": {"alphabet": ["a", "b", *slot_names(self.n)], "terms": terms}}

    def json_chunks(self) -> Iterator[str]:
        """json.dumps(self.to_json(), indent=2) written a block of sorted_blocks at a time, from one
        template per term: that encoder takes ~17 s on w_{0,8}, whose text is 166 MB."""
        shell = {"g": self.g, "n": self.n, "form": {"alphabet": ["a", "b", *slot_names(self.n)], "terms": [None]}}
        head, tail = json.dumps(shell, indent=2).split("      null")  # the placeholder marks the terms' place
        exps = ",\n          ".join(["%d"] * (self.n + 2))
        term = '      {\n        "e": [\n          %s\n        ],\n        "c": "%%s"\n      }' % exps
        yield head
        for i, block in enumerate(self.sorted_blocks()):
            yield (",\n" if i else "") + ",\n".join([term % values for values in block])
        yield tail


@lru_cache(maxsize=None)
def _picks(hs: tuple) -> Tuple[Tuple[int, tuple], ...]:
    """(h, hs without one h) for each distinct value h of the sorted tuple hs."""
    return tuple((h, hs[:i] + hs[i + 1:]) for i, h in enumerate(hs) if not i or h != hs[i - 1])


@lru_cache(maxsize=None)
def _arrangements(hs: tuple) -> Tuple[tuple, ...]:
    """The distinct orderings of the sorted tuple hs."""
    return tuple((h,) + tail for h, rest in _picks(hs) for tail in _arrangements(rest)) if hs else ((),)


@lru_cache(maxsize=None)
def _ab_table(d: int) -> Tuple[Vector, ...]:
    """Row j: the coefficients of a^(2d-i) b^i in alpha^(d-j) beta^j = (a-b)^(2d-2j) (a+b)^2j."""
    return tuple(convolve([(-1) ** i * comb(2 * d - 2 * j, i) for i in range(2 * d - 2 * j + 1)],
                          [comb(2 * j, i) for i in range(2 * j + 1)]) for j in range(d + 1))


def _to_ab(row: Sequence[int]) -> List[int]:
    """A row over alpha^(d-j) beta^j, d = len(row) - 1, as the row over a^(2d-i) b^i."""
    return list(map(sum, zip(*([c * x for x in ab] for c, ab in zip(row, _ab_table(len(row) - 1))))))


def _unpack(value: int, bits: int, length: int) -> List[int]:
    """The row sum_i row[i] 2^(bits i) with entries in [-2^(bits-1), 2^(bits-1)); anything left over is a fault."""
    out, mask, half = [], (1 << bits) - 1, 1 << (bits - 1)
    for _ in range(length):
        out.append(((value & mask) ^ half) - half)  # the low digit, read in [-half, half)
        value = (value - out[-1]) >> bits
    if value:
        raise EOInvariantError(f"a packed x-picture row overflows its {length} digits of {bits} bits")
    return out


# the displayed base differentials over 2^0 and 2^3, with j the power of beta:
#   w_{0,3} = (beta z1^-2 z2^-2 z3^-2 - alpha) / (alpha - beta)^2
#   w_{1,1} = (beta z1^-4 - (2 beta + alpha) z1^-2 + (2 alpha + beta) - alpha z1^2) / (8 (alpha - beta)^2)
W03_DISPLAY = EOForm(0, 3, {(1, -1, -1, -1): 1, (0, 0, 0, 0): -1}, 0).poly
W11_DISPLAY = EOForm(1, 1, {(1, -2): 1, (1, -1): -2, (0, -1): -1, (0, 0): 2, (1, 0): 1, (0, 1): -1}, 3).poly


# -- dyadic forms -------------------------------------------------------------

# ({key: c}, k): coefficients c / 2^k; a key is j, then halved slot exponents
Dyadic = Tuple[Dict[tuple, int], int]


@lru_cache(maxsize=None)
def _shuffles(left: tuple, right: tuple) -> int:
    """The ways to split the slots of sorted(left + right) so the first factor gets left."""
    return prod(comb(left.count(h) + right.count(h), left.count(h)) for h in set(left))


def _summed(parts: Sequence[Dyadic], sign: int = 1) -> Dyadic:
    """sign times the sum of the parts over the largest shift, zeros dropped and common factors of 2 divided out."""
    wide = max((shift for _, shift in parts), default=0)
    out: Dict[tuple, int] = defaultdict(int)
    for terms, shift in parts:
        scale = sign << (wide - shift)
        for key, c in terms.items():
            out[key] += c * scale
    drop = min([wide] + [(c & -c).bit_length() - 1 for c in out.values() if c])
    return {key: c >> drop for key, c in out.items() if c}, wide - drop


@lru_cache(maxsize=None)
def _residue_table(i: int, signs: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[int, tuple, int], ...]:
    """(Res_{z->0} + Res_{z->infinity}) of z^i dz / (z0^2 - z^2) times
    sum over sigma in signs of prod_r 1/(z - sigma_r w_r)^2, as
    (e_z0, (e_w1, ..), coefficient) triples.

    The z^-1 coefficient comes from 2k + p_1 + .. + p_m = -1 - i at zero
    (monomial z0^(-2k-2) prod w_r^(-p_r-2)) and = i - 1 - 2m at infinity
    (monomial z0^2k prod w_r^p_r, the two minus signs cancelling), each
    with coefficient prod (p_r+1) sigma_r^p_r.  With no pair factors
    (signs = ((),)) this is z0^(i-1) for odd i.
    """
    m = len(signs[0])
    out = []
    for total, at_zero in ((-1 - i, True), (i - 1 - 2 * m, False)):
        for ps in product(range(total + 1), repeat=m):
            rest = total - sum(ps)
            if rest < 0 or rest % 2:
                continue
            coeff = prod(p + 1 for p in ps) * sum(
                prod(sign ** p for sign, p in zip(sigma, ps)) for sigma in signs
            )
            if coeff:
                k = rest // 2
                if at_zero:
                    out.append((-2 * k - 2, tuple(-p - 2 for p in ps), coeff))
                else:
                    out.append((2 * k, ps, coeff))
    return tuple(out)


@lru_cache(maxsize=None)
def _halved_table(i: int, signs: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[int, tuple, int], ...]:
    """_residue_table with its exponents halved into key entries; an odd one is a fault, never floored."""
    table = _residue_table(i, signs)
    if any(e % 2 for e0, ws, _ in table for e in (e0, *ws)):
        raise EOInvariantError(f"odd slot exponent in the residues of z^{i} against {signs}")
    return tuple((e0 // 2, tuple(w // 2 for w in ws), t) for e0, ws, t in table)


NO_PAIR = ((),)
BERGMAN_PAIR = ((1,), (-1,))  # 1/(z - w)^2 + 1/(z + w)^2
BERGMAN_DOUBLE = ((1, -1), (-1, 1))  # the two orderings of w_{0,3}'s pair of Bergman kernels


@lru_cache(maxsize=None)
def _kappa_table(dual: bool) -> Tuple[Tuple[int, int, int], ...]:
    """2^KAPPA_SHIFT kappa(z) = (alpha z^2 - beta)(z^2 - 1)^2 / (alpha - beta)^2 as integer (j, e_z, c) triples
    c alpha^(1-j) beta^j z^e_z: the numerator is -beta + (alpha + 2 beta) z^2 - (2 alpha + beta) z^4 + alpha z^6.
    The dual chart trades alpha and beta, so j stays the power of the global beta."""
    table = ((1, 0, -1), (0, 2, 1), (1, 2, 2), (0, 4, -2), (1, 4, -1), (0, 6, 1))
    return tuple((1 - j, ez, c) for j, ez, c in table) if dual else table


def _products(x: EOForm, y: EOForm) -> Dyadic:
    """x(z, A) y(z, B) keyed (j, h_z, *sorted(A + B)), counting each way the slots split between x and y."""
    out: Dict[tuple, int] = defaultdict(int)
    ys = [(ky[0], ky[1], ky[2:], d) for ky, d in y.by_first_slot.items()]
    for kx, c in x.by_first_slot.items():
        j, h, left = kx[0], kx[1], kx[2:]
        for jy, hy, right, d in ys:
            out[(j + jy, h + hy) + tuple(sorted(left + right))] += c * d * _shuffles(left, right)
    return out, x.shift + y.shift


class EOEngine:
    """Fills the w_{g,n} table in dependency order; immutable once published.

    ``dual=True`` swaps the roles of the two branch points (alpha <-> beta,
    z <-> 1/z), which is how chart consistency is tested.
    """

    def __init__(self, dual: bool = False):
        self.dual = dual
        self.alpha, self.beta = (BETA, ALPHA) if dual else (ALPHA, BETA)
        self._forms: Dict[Tuple[int, int], EOForm] = {}
        self._slot_table: Dict[int, Tuple[List[Vector], Iterator[Vector]]] = {}  # e -> (rows so far, the rest)
        self._kappa = _kappa_table(dual)
        self._gaps = GAPS[::-1] if dual else GAPS  # alpha, beta over (a, b)

    # -- kernel ------------------------------------------------------------

    def _kernel_chart_zero(self, out_name: str, order: int) -> TruncatedSeries:
        """K-hat expanded at z = 0 through z^(order-1): simple pole, spectator
        poles in out_name."""
        geom = TruncatedSeries.from_map(
            "z",
            {2 * k: LaurentPolynomial.monomial(1, {out_name: -2 * k - 2}) for k in range(order // 2 + 1)},
            order,
        )
        # kappa's (j, e_z, c) table has the key shape of a one-slot form with chi = 1: expand it like one
        terms, shift = EOForm(1, 1, {(j, ez // 2): c for j, ez, c in self._kappa}, KAPPA_SHIFT).ab_terms()
        kappa = LaurentPolynomial(("a", "b", "z"), {(ea, -2 - ea, 2 * h): Fraction(c, 1 << shift)
                                                    for (ea, h), c in terms.items()})
        # kappa enters whole; the product keeps geom's window
        poly = TruncatedSeries.from_polynomial(kappa, "z", max(order, kappa.degree("z")))
        return (poly * geom).shift(-1)

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
        if g < 0:
            raise ValueError("genus must be nonnegative")
        if n < 1:
            raise ValueError("free-energy invariants (n = 0) are out of scope")
        if 2 * g - 2 + n <= 0:
            raise ValueError(f"({g},{n}) is unstable; only 2g-2+n > 0 is computed")
        key = (g, n)
        if key in self._forms:
            return self._forms[key]
        slot_names(n)  # rejects n > 9 before any recursion

        # integrands are keyed (j, h_z, *spectators), the other slots a sorted multiset
        parts: List[Dyadic] = []

        # recursion bracket, first kind: w_{g-1, n+1}(z, -z, rest) = w(z, z, rest)
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                parts.append(({(0, -1): 1}, 2))
            else:
                form = self.omega(g - 1, n + 1)
                diagonal: Dict[tuple, int] = defaultdict(int)
                for exps, c in form.by_first_slot.items():
                    for h, rest in _picks(exps[2:]):
                        diagonal[(exps[0], exps[1] + h) + rest] += c
                parts.append((diagonal, form.shift))

        # second kind: stable x stable factorizations, one term per pair of slot counts
        for g1 in range(g + 1):
            for n1 in range(1, n + 1):
                g2, n2 = g - g1, n + 1 - n1
                if 2 * g1 - 2 + n1 > 0 and 2 * g2 - 2 + n2 > 0:
                    parts.append(_products(self.omega(g1, n1), self.omega(g2, n2)))

        outputs = [self._residues(_summed(parts), NO_PAIR)]

        # third kind: Bergman pairings with the remaining slots
        if (g, n) == (0, 3):
            # both factors are Bergman kernels (the first stable form)
            outputs.append(self._residues(({(0, 0): 1}, 0), BERGMAN_DOUBLE))
        elif n > 1 and 2 * g - 2 + (n - 1) > 0:
            # w_{g,n-1}(z, others) pairs with each remaining slot in turn
            form = self.omega(g, n - 1)
            outputs.append(self._residues((form.by_first_slot, form.shift), BERGMAN_PAIR))

        form = EOForm(g, n, *_summed(outputs, sign=-1))
        form.check_invariants()
        self._forms[key] = form
        return form

    def _residues(self, integrand: Dyadic, signs) -> Dyadic:
        """(Res_{z->0} + Res_{z->infinity}) of K-hat(z1, z) F dz times sum over sigma in signs of
        prod_r 1/(z - sigma_r w_r)^2, only where z1 has the orbit's smallest exponent.  F is keyed
        (j, h_z, *spectators); z1 takes z's place, a single w joins the spectators, and the
        two w of w_{0,3} are its other slots."""
        terms, shift = integrand
        kf: Dict[tuple, int] = defaultdict(int)  # kappa(z) F / z, keyed (j, e_z, *spectators)
        for key, c in terms.items():
            j, ez, spect = key[0], 2 * key[1] - 1, key[2:]
            for kj, kz, k in self._kappa:
                kf[(j + kj, ez + kz) + spect] += c * k
        out: Dict[tuple, int] = defaultdict(int)
        for key, c in kf.items():
            j, spect = key[0], key[2:]
            for h1, ws, t in _halved_table(key[1], signs):
                if len(ws) == 1:  # w at each place among its equals gives the same sorted key
                    lo, hi = bisect_left(spect, ws[0]), bisect_right(spect, ws[0])
                    slots, ways = spect[:hi] + ws + spect[hi:], hi - lo + 1
                else:  # no w, or w_{0,3}'s two in the order of a sorted key
                    slots, ways = spect + ws, int(ws[:1] <= ws[1:])
                if ways and (not slots or h1 <= slots[0]):
                    out[(j, h1) + slots] += c * t * ways
        return out, shift + KAPPA_SHIFT

    # -- x-picture conversion --------------------------------------------------

    def z_square_series(self, order: int) -> TruncatedSeries:
        """z(x)^2 = (1 - s beta/x) / (1 - s alpha/x) as a series in t = 1/x."""
        t = "t"
        num = TruncatedSeries.from_map(t, {0: 1, 1: -S * self.beta}, order)
        den = TruncatedSeries.from_map(t, {0: 1, 1: -S * self.alpha}, order)
        return num * den.invert()

    def z_of_x_series(self, order: int) -> TruncatedSeries:
        return self.z_square_series(order).sqrt()

    def _slot_rows(self, e: int) -> Iterator[Vector]:
        """For k = 1, 2, ..: 2 4^(k-1) / s^k times the x^{-k-1} coefficient of z^{2e} dz/dx,
        as the int vector of its coefficients of alpha^(k-i) beta^i.

        In t = 1/x, z^{2e} dz/dx = ((beta-alpha)/2) s t^2 f, f = (1 - s beta t)^(e-1/2) (1 - s alpha t)^(-e-3/2).
        Log-differentiating f shows that h_k = 2^k k! f_k / s^k obeys h_{k+1} = (2k sigma1 - 2c) h_k
        - 4k(k+1) sigma2 h_{k-1}, with sigma1 = alpha+beta, sigma2 = alpha beta, c = (e-1/2) beta - (e+3/2) alpha.
        A binomial factor of f has at most 2j twos under its t^j coefficient, so 4^k f_k = 2^k h_k / k! is integral.
        """
        h_prev, h = (), (1,)
        for k in count():
            row = convolve((-1, 1), [(c << k) // factorial(k) for c in h])
            yield row[::-1] if self.dual else row  # the dual chart's alpha is the global beta
            lower = convolve((0, 1, 0), h_prev) or [0] * (len(h) + 1)  # sigma2 = alpha beta; h_{-1} = 0
            upper = convolve((2 * k + 2 * e + 3, 2 * k - 2 * e + 1), h)  # 2k sigma1 - 2c over (alpha, beta)
            h_prev, h = h, tuple(x - 4 * k * (k + 1) * y for x, y in zip(upper, lower))

    def to_x_series(self, g: int, n: int, order: int) -> NPointSeries:
        """w_{g,n} contracted one slot at a time over nondecreasing index prefixes.

        A partial sum is keyed by the orbit of the slots not yet contracted; the next slot takes each
        distinct exponent of that orbit in turn.  Partial sums and slot rows (over alpha^(D-j) beta^j) are
        each one integer of K-bit balanced digits, so a contraction is a sum of integer products.  Each
        coefficient is at most sum|c| n! L^n, L the largest l1 norm of a row: K is its bit length plus 2."""
        out = NPointSeries(g, n, order)
        form = self.omega(g, n)
        chi, count_rows = 2 * g - 2 + n, order - 2 * n + 1  # the largest index is order - 2(n - 1) - 1
        table = {}  # e -> the slot-table rows of z^{2e} dz/dx through the largest index
        for e in {h for key in form.terms for h in key[1:]}:
            rows, more = self._slot_table.setdefault(e, ([], self._slot_rows(e)))
            rows.extend(islice(more, max(count_rows - len(rows), 0)))
            table[e] = rows[:count_rows]
        top = max(sum(map(abs, row)) for rows in table.values() for row in rows)
        bits = (sum(map(abs, form.terms.values())) * factorial(n) * top ** n).bit_length() + 2
        slots = {e: [sum(c << (bits * i) for i, c in enumerate(row)) for row in rows] for e, rows in table.items()}
        state: Dict[tuple, int] = defaultdict(int)
        for (j, *hs), c in form.terms.items():
            state[tuple(hs)] += c << (bits * j)

        def contract(state, prefix, budget):
            if len(prefix) == n:
                # s^total a^(2 total - i) b^(i - 2 chi) / 2^twos must be an integer times u^(total - i/2) v^(i/2 - chi)
                total = sum(prefix)
                twos, d = form.shift + 4 * chi + 2 * total - n, out.degree(prefix)
                vec = [0] * max(d + 1, 0)
                for i, c in enumerate(_to_ab(_unpack(state[()], bits, chi + total + 1))):
                    if c:
                        if i % 2 or c % (1 << twos) or not 0 <= i // 2 - chi <= d:
                            raise EOInvariantError(
                                f"x-picture coefficient at {prefix} is not an integer polynomial in u, v of degree {d}")
                        vec[i // 2 - chi] = c >> twos
                out.set_coefficient(prefix, tuple(vec))
                return
            # grouped by the later slots, so each sum is reduced as soon as it is built
            by_rest: Dict[tuple, list] = {}
            for key, value in state.items():
                for e, rest in _picks(key):
                    by_rest.setdefault(rest, []).append((slots[e], value))
            for k in range(prefix[-1] if prefix else 1, budget // (n - len(prefix))):
                nxt = {rest: sum([rows[k - 1] * value for rows, value in parts]) for rest, parts in by_rest.items()}
                contract(nxt, prefix + (k,), budget - k - 1)

        contract(state, (), order)
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
        checked as series at both charts (via the pole-free product y*x).

        At z = 0, x = s (beta - alpha z^2) / (1 - z^2) and y x = (alpha - beta) z / (2 (1 - z^2));
        in wt = 1/z at infinity alpha and beta trade places and y x changes sign.  Over s^2
        each side's z^k coefficient is a degree-4 int vector in (a, b), and 1/(1 - z^2) is
        the all-ones even row."""
        if order < 2:
            raise ValueError("the curve identity needs order >= 2")
        alpha, beta = self._gaps
        inv = [1 - k % 2 for k in range(order + 1)]
        gap2 = convolve(*[tuple(map(sub, alpha, beta))] * 2)  # (alpha - beta)^2
        # 4 s^2 (y x)^2 = s^2 (alpha - beta)^2 z^2 / (1 - z^2)^2
        lhs = [(0,) * 5] * 2 + [tuple(w * c for c in gap2) for w in convolve(inv, inv)]

        def over_s2(vec: Sequence[int]) -> LaurentPolynomial:
            return LaurentPolynomial(("a", "b", "s"), {(4 - i, i, 2): c for i, c in enumerate(vec)})

        def comparisons():
            for chart, (c0, c2) in (("zero", (beta, alpha)), ("infinity", (alpha, beta))):
                # x / s = (c0 - c2 z^2) / (1 - z^2)
                x = [tuple(i * p - j * q for p, q in zip(c0, c2)) for i, j in zip(inv, [0, 0] + inv)]
                for k in range(order + 1):
                    rhs = [0] * 5
                    for i in range(k + 1):
                        _add(rhs, convolve(x[i], x[k - i]))
                    _add(rhs, convolve((1, 0, 1), x[k]), -2)  # u + v = a^2 + b^2
                    if k == 0:
                        _add(rhs, (1, 0, -2, 0, 1))  # (u - v)^2
                    yield ((chart, k), over_s2(rhs), over_s2(lhs[k]))

        return run_comparisons("curve-identity", {"order": order}, comparisons())


def eo_omega(g: int, n: int, engine: Optional[EOEngine] = None) -> EOForm:
    return (engine or EOEngine()).omega(g, n)
