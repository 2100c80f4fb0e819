"""Dessin correlators from the Virasoro constraints, with memoization.

The memoized value is the weighted correlator W_g(A) = prod(A) * D_g(A),
where D_g(a_1, ..., a_n) = d^n F_g / dp_{a_1} ... dp_{a_n} at p = 0.
W_g(A) is the coefficient of prod x_i^{-a_i - 1} in G_{g,n}, the value
every cross-check compares against.  The constraints, times prod(A), give
every value from the seed W_0(1) = s u v with no division, by eliminating
one part c = m + 1:

    W_g({m+1} + A) = s * [ sum_j a_j W_g({a_j + m} + A - {a_j}) + (u+v) W_g({m} + A)
                         + sum_{k=1}^{m-1} W_{g-1}({k, m-k} + A)
                         + sum_{k=1}^{m-1} sum_{g1+g2=g, I1+I2=A} W_{g1}({k} + I1) W_{g2}({m-k} + I2) ],

where an index 0 or a negative genus kills a term.  Any pivot terminates;
the default eliminates the smallest part, which fills far fewer memo
entries than "largest", kept so tests can confirm strategy independence.

W_g(A) / s^{|A|} is an integer polynomial in (u, v), homogeneous of degree
d = |A| - n + 2 - 2g, stored in the table as the tuple of ints whose entry j
is the coefficient of u^{d-j} v^j (empty when d < 0).  The grading thus
holds by construction, not by assertion: the table rejects any other
length.  Nonzero values are divisible by u v, so W_g({n}) = 0 once
2g > n - 1, which truncates all-genus one-point sums.

The recursion itself runs on one integer per entry (Kronecker
substitution): P = W(1, X) at X = 2^k, so entry j of the vector is the
k-bit slot j of P.  The constraints are linear over Z[u, v], so a join term
is c * P, the (u+v) shift is P + (P << k) and a factor term is
mult * P1 * P2.  Every coefficient is nonnegative (the constraints add
products of nonnegative values to the seed), so S = W(1, 1), carried along
by the same operations, bounds every coefficient of the entry and of each
partial sum that built it.  An entry is accepted only if S < 2^k, which
certifies that no slot overflowed into its neighbour; a larger S widens the
slots, repacks the memo from the table's vectors and evaluates the entry
again.  Each new entry is unpacked once into the table, so callers and the
cache see only vectors, and a vector read from a cache file is packed only
when it feeds the recursion.  The memo is filled from an explicit work
stack, so the depth of a query is bounded by memory, not by Python's
recursion limit.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, factorial, prod
from operator import itemgetter
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from . import closedforms
from .laurent import LaurentPolynomial
from .npoint import NPointSeries, Vector, _add, as_polynomial, convolve, index_tuples
from .report import VerificationReport, run_comparisons

CACHE_VERSION = 2


class CacheFormatError(ValueError):
    pass


class PartitionKey(NamedTuple):
    """A memo key: a plain tuple, so hashing and equality run in C."""

    genus: int
    parts: Tuple[int, ...]

    @classmethod
    def make(cls, genus: int, parts: Iterable[int]) -> "PartitionKey":
        parts = tuple(sorted(parts))
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if not parts or parts[0] < 1:
            raise ValueError(f"parts must be a nonempty multiset of positive integers, got {parts}")
        return cls(genus, parts)

    @property
    def degree(self) -> int:
        """The (u,v)-degree of W_g(parts)."""
        return sum(self.parts) - len(self.parts) + 2 - 2 * self.genus


@dataclass
class CorrelatorTable:
    entries: Dict[PartitionKey, Vector] = field(default_factory=dict)
    hits: int = field(default=0, compare=False)
    misses: int = field(default=0, compare=False)
    # entries in the file this table was loaded from or last saved to; the
    # table only grows, so an equal length means nothing new to write
    stored: int = field(default=0, compare=False)

    def get(self, key: PartitionKey) -> Optional[Vector]:
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: PartitionKey, value: Vector) -> None:
        if len(value) != max(key.degree + 1, 0):
            raise ValueError(f"{key} has degree {key.degree}, got a vector of length {len(value)}")
        self.entries[key] = value

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path) -> None:
        """Write beside ``path``, then rename: an interrupted save leaves the old cache."""
        payload = {
            "version": CACHE_VERSION,
            "entries": [
                {"g": g, "parts": list(parts), "w": list(w)} for (g, parts), w in sorted(self.entries.items())
            ],
        }
        text = json.dumps(payload) + "\n"  # json.dump would take the pure-Python encoder
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        self.stored = len(self.entries)

    @classmethod
    def load(cls, path) -> "CorrelatorTable":
        """Read a cache, checking every entry.  A missing file raises
        FileNotFoundError (or NotADirectoryError), which is not corruption;
        anything else that is wrong raises CacheFormatError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.loads(fh.read())
        except (FileNotFoundError, NotADirectoryError):
            raise
        except (OSError, ValueError) as exc:
            raise CacheFormatError(f"unreadable correlator cache {path}: {exc}") from exc
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CACHE_VERSION:
            raise CacheFormatError(f"correlator cache {path} has version {version!r}, expected "
                                   f"{CACHE_VERSION}; `dessin cache clear` removes it")
        table = cls()
        entries, make = table.entries, PartitionKey.make
        try:
            rows = list(map(itemgetter("g", "parts", "w"), payload["entries"]))
            genera, part_lists, vectors = zip(*rows) if rows else ((), (), ())
            # exact types in bulk: bools and floats hash equal to ints, so they must not pass
            types = set(map(type, chain(genera, chain.from_iterable(part_lists), chain.from_iterable(vectors))))
            if not types <= {int}:
                found = ", ".join(sorted(t.__name__ for t in types - {int}))
                raise ValueError(f"genus, parts and coefficients must be ints, found {found}")
            for g, parts, w in rows:
                key = make(g, parts)
                value = tuple(w)
                if len(value) != max(key.degree + 1, 0):
                    raise ValueError(f"{key} has degree {key.degree}, got a vector of length {len(value)}")
                if value != value[::-1]:
                    raise ValueError(f"{key} needs a u<->v symmetric vector, got {w!r}")
                entries[key] = value
            if len(entries) != len(rows):
                raise ValueError(f"{len(rows) - len(entries)} entries repeat a key")
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheFormatError(f"corrupt correlator cache {path}: {exc}") from exc
        table.stored = len(table)
        return table


def _multiset_splits(parts: Tuple[int, ...]):
    """Distinct (I1, I2) splits of a multiset with the number of position
    subsets realizing each, so repeated values are not re-enumerated."""
    groups = sorted(Counter(parts).items())
    splits = [((), (), 1)]
    for value, count in groups:
        extended = []
        for left, right, mult in splits:
            for take in range(count + 1):
                extended.append(
                    (left + (value,) * take, right + (value,) * (count - take), mult * comb(count, take))
                )
        splits = extended
    return splits


SEED = (0, (1,))  # W_0(1) = s u v, the one value no constraint produces


def _pack(vec: Vector, k: int) -> int:
    """sum_j vec[j] 2^(k j): the vector's polynomial at u = 1, v = 2^k."""
    value = 0
    for c in reversed(vec):
        value = (value << k) + c
    return value


def _unpack(value: int, k: int, length: int) -> Vector:
    """The inverse of ``_pack`` for entries in [0, 2^k)."""
    mask = (1 << k) - 1
    return tuple([(value >> (k * j)) & mask for j in range(length)])


class VirasoroEngine:
    """Correlator computations driven by one memo table (single writer)."""

    def __init__(self, table: Optional[CorrelatorTable] = None, strategy: str = "smallest"):
        if strategy not in ("largest", "smallest"):
            raise ValueError("strategy must be 'largest' or 'smallest'")
        self.table = table if table is not None else CorrelatorTable()
        self.strategy = strategy
        # the slot width k of the packed memo; it only grows, and any start is exact
        self.bits = 64
        # (g, parts) -> (W(1, 2^bits), W(1, 1)) for every entry the recursion has read
        self._packed: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, int]] = {}
        self._op_forms: Dict[Tuple[int, int, int], NPointSeries] = {}

    # -- the recursion -----------------------------------------------------

    def raw_correlator(self, g: int, parts: Iterable[int]) -> LaurentPolynomial:
        key = PartitionKey.make(g, parts)
        return as_polynomial(sum(key.parts), self._vector(key), prod(key.parts))

    def weighted_correlator(self, g: int, parts: Iterable[int]) -> LaurentPolynomial:
        key = PartitionKey.make(g, parts)
        return as_polynomial(sum(key.parts), self._vector(key))

    def _vector(self, key: PartitionKey) -> Vector:
        """W_g(A) as a vector: one table read, and on a miss a fill of the packed memo."""
        if key.degree < 0:
            return ()
        value = self.table.get(key)
        if value is None:
            self._fill(key)
            value = self.table.entries[key]
        return value

    def _fill(self, target: PartitionKey) -> None:
        """Compute target and every entry it needs, depth first from an explicit
        stack.  A frame whose terms are built waits for its inputs, which sit
        above it.  A vector the table already holds is packed as it is read, at
        any weight: a packed value is the exact integer W(1, 2^bits) even when a
        slot spills, and only unpacking needs the certificate, which every entry
        that reads this one checks for itself."""
        packed, entries = self._packed, self.table.entries
        stack = [(target, None)]
        while stack:
            key, terms = stack.pop()
            if terms is not None:
                self._compute(key, terms)
            elif key in packed:
                continue
            elif key in entries:
                vec = entries[key]
                if min(vec, default=0) < 0:  # then S bounds nothing
                    raise CacheFormatError(f"the cached value of {key} has a negative coefficient, "
                                           f"which no correlator has: {vec!r}")
                packed[key] = (_pack(vec, self.bits), sum(vec))
            else:
                terms = self._terms(key)
                stack.append((key, terms))
                stack.extend((dep, None) for dep in terms[-1] if dep not in packed)

    def _terms(self, key: Tuple[int, Tuple[int, ...]]):
        """The constraint for key as (linear, shift, factors, inputs): linear maps
        an input to its integer coefficient, shift is the input multiplied by
        (u+v) or None, factors maps a sorted pair of inputs to the multiplicity
        of their product.  inputs holds every key of nonnegative degree that the
        constraint names, also where its partner factor vanishes, so the memo
        fills the same entries as a recursive evaluation would."""
        g, parts = key
        d = sum(parts) - len(parts) + 2 - 2 * g
        pivot = 0 if self.strategy == "smallest" else len(parts) - 1
        rest = parts[:pivot] + parts[pivot + 1 :]
        m = parts[pivot] - 1
        linear: Dict[tuple, int] = {}
        # join terms: merge the eliminated part into one spectator
        for a in dict.fromkeys(rest):
            i = rest.index(a)
            join = (g, tuple(sorted(rest[:i] + rest[i + 1 :] + (a + m,))))
            linear[join] = linear.get(join, 0) + rest.count(a) * a
        # genus-lowering term: {k, m-k} and {m-k, k} are one key
        if g >= 1:
            for k in range(1, m // 2 + 1):
                lowered = (g - 1, tuple(sorted(rest + (k, m - k))))
                linear[lowered] = linear.get(lowered, 0) + (1 if 2 * k == m else 2)
        # dilaton-type term: times (u+v), of degree d - 1
        shift = (g, tuple(sorted(rest + (m,)))) if m >= 1 and d >= 1 else None
        inputs = set(linear)
        if shift is not None:
            inputs.add(shift)
        # factorization term over genus and spectator splits.  The term at (k, g1, I1, I2)
        # and its mirror at (m-k, g-g1, I2, I1) multiply the same pair, so only the
        # smaller of the two is built, with twice its multiplicity.
        factors: Dict[tuple, int] = {}
        if m >= 2:
            for left, right, mult in _multiset_splits(rest):
                low = sum(left) - len(left) + 1
                for k in range(1, m):
                    side = (k, left)
                    other = (m - k, right)
                    if side > other:
                        continue
                    first_parts, second_parts = tuple(sorted(left + (k,))), tuple(sorted(right + (m - k,)))
                    for g1 in range(g + 1 if side < other else g // 2 + 1):
                        d1 = low + k - 2 * g1
                        first, second = (g1, first_parts), (g - g1, second_parts)
                        if d1 >= 0:
                            inputs.add(first)
                        if d1 <= d:
                            inputs.add(second)
                        if 0 <= d1 <= d:
                            pair = (first, second) if first <= second else (second, first)
                            weight = mult if side == other and 2 * g1 == g else 2 * mult
                            factors[pair] = factors.get(pair, 0) + weight
        return linear, shift, factors, inputs

    def _compute(self, key: Tuple[int, Tuple[int, ...]], terms) -> None:
        """Evaluate the constraint at (u, v) = (1, 2^bits) and at (1, 1) at once;
        the packed value P is accepted only under its certificate S < 2^bits."""
        linear, shift, factors, _ = terms
        packed = self._packed
        while True:
            k = self.bits
            p_sum, s_sum = (1 << k, 1) if key == SEED else (0, 0)
            for dep, c in linear.items():
                p, s = packed[dep]
                p_sum += c * p
                s_sum += c * s
            if shift is not None:
                p, s = packed[shift]
                p_sum += p + (p << k)
                s_sum += 2 * s
            for (first, second), c in factors.items():
                p1, s1 = packed[first]
                p2, s2 = packed[second]
                p_sum += c * p1 * p2
                s_sum += c * s1 * s2
            if s_sum < 1 << k:
                break
            self._repack(s_sum)
        packed[key] = (p_sum, s_sum)
        g, parts = key
        self.table.put(PartitionKey(g, parts), _unpack(p_sum, k, sum(parts) - len(parts) + 3 - 2 * g))

    def _repack(self, s: int) -> None:
        """Widen the slots so that a value of weight s fits, repacking every entry from its vector."""
        self.bits = k = max(2 * self.bits, s.bit_length())
        packed, entries = self._packed, self.table.entries
        for key, (_, weight) in packed.items():
            packed[key] = (_pack(entries[key], k), weight)

    # -- assembled series ----------------------------------------------------

    def npoint_series(self, g: int, n: int, order: int) -> NPointSeries:
        out = NPointSeries(g, n, order)
        for key in index_tuples(n, order):
            out.set_coefficient(key, self._vector(PartitionKey.make(g, key)))
        return out

    def one_point_all_genus(self, n: int) -> LaurentPolynomial:
        """sum over genus of W_g(n) = n * D_g(n), g <= (n-1)//2 by the degree law; genus g has
        (u,v)-degree n + 1 - 2g, so no two genera share a monomial."""
        if n < 1:
            raise ValueError("one-point index must be positive")
        vectors = [self._vector(PartitionKey.make(g, (n,))) for g in range((n - 1) // 2 + 1)]
        return LaurentPolynomial(("s", "u", "v"), {(n, len(w) - 1 - j, j): c for w in vectors for j, c in enumerate(w)})

    @staticmethod
    def kp_one_point(n: int) -> LaurentPolynomial:
        """All-genus one-point value by the explicit finite sum

            (s^n u v / n) sum_{i+j=n-1} (-1)^j / (i! j!)
                * prod_{a=1}^{i} (u+a)(v+a) * prod_{b=1}^{j} (u-b)(v-b),

        an oracle completely independent of the recursion.  Over n! it is the
        sum of (-1)^j C(n-1, i) r_i(u) r_i(v), r_i(x) = prod (x+a) prod (x-b).
        """
        if n < 1:
            raise ValueError("one-point index must be positive")
        total: Counter = Counter()  # keyed by (s, u, v) exponents
        for i in range(n):
            r = reduce(convolve, [(-root, 1) for root in (*range(-i, 0), *range(1, n - i))], (1,))
            weight = (-1) ** (n - 1 - i) * comb(n - 1, i)
            for p, x in enumerate(r):
                for q, y in enumerate(r):
                    total[(n, p + 1, q + 1)] += weight * x * y
        return LaurentPolynomial(("s", "u", "v"), {key: Fraction(c, factorial(n)) for key, c in total.items()})

    # -- operator-form assembly ----------------------------------------------

    def assemble_operator_form(self, g: int, n: int, order: int) -> NPointSeries:
        """Build G_{g,n+1} by the renormalized one-variable-at-a-time operators.

        The new slot x0 is produced from G_{g,n}, G_{g-1,n+2} and stable
        factor pairs, all divided by sqrt(Delta(x0)) = 1 - s(u+v)/x0
        - 2 s G_{0,1}(x0); the unstable inputs G_{0,1}, G_{0,2} enter only
        through that denominator and the closed two-point form.
        """
        if 2 * g - 2 + (n + 1) <= 0:
            raise ValueError(f"target ({g},{n + 1}) is unstable")
        return self._op_form(g, n + 1, order)

    def _series_input(self, g: int, n: int, order: int) -> Optional[NPointSeries]:
        """An ingredient G_{g,n} for the assembly: the closed two-point form
        for (0,2), recursively assembled otherwise; None when the order holds
        no n-point tuple, so that nothing would be read from it."""
        if order < 2 * n:
            return None
        if (g, n) == (0, 2):
            return closedforms.dessin_closed_series("G02", order)
        return self._op_form(g, n, order)

    def _op_form(self, g: int, np1: int, order: int) -> NPointSeries:
        memo_key = (g, np1, order)
        if memo_key in self._op_forms:
            return self._op_forms[memo_key]
        out = NPointSeries(g, np1, order)
        n = np1 - 1

        d_src = self._series_input(g, n, order - 2) if n >= 1 else None
        e_src = self._series_input(g - 1, n + 2, order) if g >= 1 else None
        factor_pairs = []
        for g1 in range(g + 1):
            g2 = g - g1
            for left, right, _mult in _multiset_splits(tuple(range(n))):
                n1, n2 = len(left) + 1, len(right) + 1
                if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                    continue
                fac1, fac2 = self._series_input(g1, n1, order - 2), self._series_input(g2, n2, order - 2)
                if fac1 is not None and fac2 is not None:
                    factor_pairs.append((left, right, fac1, fac2))

        pre_memo: Dict[Tuple[int, Tuple[int, ...]], Vector] = {}

        def pre(m: int, rest: Tuple[int, ...]) -> Vector:
            """The bracket coefficient at x0^{-m-1} prod x_i^{-r_i-1} before the
            s / sqrt(Delta(x0)) renormalization: s^{m+|rest|-1} times this vector."""
            key = (m, rest)
            if key in pre_memo:
                return pre_memo[key]
            acc = [0] * max(out.degree((m,) + rest) + 1, 0)
            # one-variable operator acting on each existing slot
            if d_src is not None:
                for j, r in enumerate(rest):
                    _add(acc, d_src.vector(rest[:j] + (r + m - 1,) + rest[j + 1 :]), r)
            # diagonal of the genus-lowered series at the new slot
            if e_src is not None:
                for alpha in range(1, m - 1):
                    _add(acc, e_src.vector((alpha, m - 1 - alpha) + rest))
            # stable factor pairs
            for left, right, fac1, fac2 in factor_pairs:
                vals_left = tuple(rest[i] for i in left)
                vals_right = tuple(rest[i] for i in right)
                cost_left = sum(a + 1 for a in vals_left)
                cost_right = sum(a + 1 for a in vals_right)
                for alpha in range(1, m - 1):
                    beta = m - 1 - alpha
                    if alpha + 1 + cost_left > fac1.order or beta + 1 + cost_right > fac2.order:
                        continue
                    c1 = fac1.vector((alpha,) + vals_left)
                    if any(c1):
                        _add(acc, convolve(c1, fac2.vector((beta,) + vals_right)))
            pre_memo[key] = value = tuple(acc)
            return value

        # multiply by s / sqrt(Delta(x0)), reading the new slot off key[0]
        inv_rows = closedforms.delta_power_rows(1, order)
        for key in index_tuples(np1, order):
            m0, rest = key[0], key[1:]
            acc = [0] * max(out.degree(key) + 1, 0)
            for k in range(0, m0):
                _add(acc, convolve(pre(m0 - k, rest), inv_rows[k]))
            out.set_coefficient(key, tuple(acc))
        self._op_forms[memo_key] = out
        return out

    # -- reports ---------------------------------------------------------------

    def kp_oracle_report(self, n_max: int) -> VerificationReport:
        if n_max < 1:
            raise ValueError(f"the kp oracle needs n_max >= 1, got {n_max}")
        return run_comparisons("kp-oracle", {"n_max": n_max}, (
            (n, self.kp_one_point(n), self.one_point_all_genus(n)) for n in range(1, n_max + 1)))

    def operator_form_report(self, g: int, n: int, order: int) -> VerificationReport:
        def comparisons():
            assembled = self.assemble_operator_form(g, n, order)
            direct = self.npoint_series(g, n + 1, order)
            for key in index_tuples(n + 1, order):
                yield key, direct.coefficient(key), assembled.coefficient(key)

        return run_comparisons("operator-form", {"g": g, "n": n + 1, "order": order}, comparisons())

