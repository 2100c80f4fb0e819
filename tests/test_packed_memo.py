"""The packed Virasoro memo against the recursive vector evaluation it replaced.

``VectorReference`` is that evaluation: Python recursion over coefficient
vectors, one convolution per factor term.  The engine packs each entry into
one integer, P = W(1, 2^bits), and accepts it only when S = W(1, 1) < 2^bits;
the tests below start it narrow enough that the certificate and the
repacking decide the result.
"""

from collections import Counter
from math import factorial

import pytest

from dessin import cli
from dessin.npoint import Vector, _add, as_polynomial, convolve
from dessin.virasoro import CacheFormatError, CorrelatorTable, PartitionKey, VirasoroEngine, _multiset_splits
from test_virasoro import partitions_up_to

MAX_GENUS, MAX_TOTAL = 3, 12


class VectorReference:
    """W_g(A) by recursion on vectors, memoized in ``entries`` like the engine's table."""

    def __init__(self, strategy: str = "smallest"):
        self.strategy = strategy
        self.entries = {}

    def w(self, key: PartitionKey) -> Vector:
        d = key.degree
        if d < 0:
            return ()
        if key in self.entries:
            return self.entries[key]
        g, parts = key.genus, key.parts
        pivot = 0 if self.strategy == "smallest" else len(parts) - 1
        rest = parts[:pivot] + parts[pivot + 1 :]
        m = parts[pivot] - 1
        acc = [0] * (d + 1)
        if g == 0 and parts == (1,):
            acc[1] = 1
        for a, count in Counter(rest).items():
            reduced = list(rest)
            reduced.remove(a)
            _add(acc, self.w(PartitionKey.make(g, tuple(reduced) + (a + m,))), count * a)
        if m >= 1:
            w = self.w(PartitionKey.make(g, rest + (m,)))
            _add(acc, tuple(a + b for a, b in zip(w + (0,), (0,) + w)))
        if g >= 1:
            for k in range(1, m):
                _add(acc, self.w(PartitionKey.make(g - 1, rest + (k, m - k))))
        if m >= 2:
            splits = _multiset_splits(rest)
            for k in range(1, m):
                for g1 in range(g + 1):
                    for left, right, mult in splits:
                        w1 = self.w(PartitionKey.make(g1, left + (k,)))
                        w2 = self.w(PartitionKey.make(g - g1, right + (m - k,)))
                        _add(acc, convolve(w1, w2), mult)
        self.entries[key] = value = tuple(acc)
        return value


KEYS = [PartitionKey.make(g, parts) for parts in partitions_up_to(MAX_TOTAL) for g in range(MAX_GENUS + 1)]


def engine_with_bits(bits, table=None, strategy="smallest"):
    """An engine whose packed memo starts with slots of the given width."""
    engine = VirasoroEngine(table, strategy)
    engine.bits = bits
    return engine


def filled_tables(strategy, bits):
    """The engine's table and the reference's memo after every key in KEYS."""
    engine, reference = engine_with_bits(bits, strategy=strategy), VectorReference(strategy)
    for key in KEYS:
        assert engine.weighted_correlator(key.genus, key.parts) == as_polynomial(sum(key.parts), reference.w(key)), key
    return engine, reference


@pytest.mark.parametrize("strategy", ["smallest", "largest"])
def test_the_packed_memo_equals_the_vector_reference(strategy):
    """Every (g, A) with |A| <= 12 and g <= 3: the same values, and the same table entries,
    so the saved cache is what a recursive evaluation would save."""
    engine, reference = filled_tables(strategy, 64)
    assert engine.table.entries == reference.entries
    assert engine.bits == VirasoroEngine().bits == 64  # no value here needs more than 64 bits


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
@pytest.mark.parametrize("strategy", ["smallest", "largest"])
def test_a_narrow_start_repacks_and_still_matches(strategy, bits):
    engine, reference = filled_tables(strategy, bits)
    assert engine.table.entries == reference.entries
    assert engine.bits > bits
    largest = max(sum(vec) for vec in reference.entries.values())
    assert largest < 1 << engine.bits and engine.bits <= 2 * largest.bit_length()


@pytest.mark.parametrize("bits", range(1, 25))
def test_each_starting_width_keeps_factorials_whole(bits):
    """W_0(1^n) = (0, (n-1)!, 0): its one coefficient is the whole of S, so a slot one bit
    narrower than S needs lets it spill into the next slot."""
    engine = engine_with_bits(bits)
    for n in range(1, 16):
        assert engine._vector(PartitionKey.make(0, (1,) * n)) == (0, factorial(n - 1), 0), (bits, n)
    assert all(s < 1 << engine.bits for _, s in engine._packed.values())


def test_a_loaded_vector_wider_than_the_slots_is_repacked_before_a_value_is_accepted():
    """13! has 33 bits: a table entry that wide, read by a 2-bit engine, spills out of its slot
    when packed; the entry that reads it fails its certificate, which widens the slots and
    repacks the memo from the table's vectors."""
    table = CorrelatorTable()
    table.put(PartitionKey.make(0, (1,) * 14), (0, factorial(13), 0))
    engine = engine_with_bits(2, table)
    assert engine._vector(PartitionKey.make(0, (1,) * 15)) == (0, factorial(14), 0)
    assert engine.bits >= factorial(14).bit_length()
    assert len(engine.table) == 2  # the chain stopped at the loaded entry


def test_a_loaded_vector_is_packed_only_when_the_recursion_reads_it():
    table = CorrelatorTable()
    table.put(PartitionKey.make(0, (2,)), (0, 1, 1, 0))
    table.put(PartitionKey.make(1, (3,)), (0, 1, 0))
    engine = VirasoroEngine(table)
    assert engine._vector(PartitionKey.make(0, (2,))) == (0, 1, 1, 0)
    assert engine._packed == {}  # a hit returns the vector; nothing is packed
    engine.weighted_correlator(0, (3,))
    assert set(engine._packed) == {(0, (1,)), (0, (2,)), (0, (3,))}


def test_a_negative_cached_coefficient_is_refused_when_it_would_feed_the_recursion(tmp_path, capsys):
    """Nonnegative coefficients are what make S a bound; a cache entry without them is corrupt."""
    table = CorrelatorTable()
    table.put(PartitionKey.make(0, (2,)), (0, -1, -1, 0))
    table.save(tmp_path / cli.CACHE_FILE)
    with pytest.raises(CacheFormatError, match="negative coefficient"):
        VirasoroEngine(CorrelatorTable.load(tmp_path / cli.CACHE_FILE)).weighted_correlator(0, (3,))
    assert cli.main(["correlator", "--genus", "0", "--parts", "3", "--cache", str(tmp_path)]) == 2
    assert "negative coefficient" in capsys.readouterr().err
