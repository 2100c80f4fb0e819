import hashlib
import json
import os
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from dessin import cli
from dessin.closedforms import dessin_closed_series, narayana_one_point_law
from dessin.laurent import LaurentPolynomial
from dessin.series import SeriesWindowError
from dessin.virasoro import (
    CacheFormatError,
    CorrelatorTable,
    PartitionKey,
    VirasoroEngine,
)

S, U, V = (LaurentPolynomial.variable(name) for name in ("s", "u", "v"))


def partitions_up_to(total):
    def rec(rem, lo):
        if rem == 0:
            yield ()
        for a in range(lo, rem + 1):
            for rest in rec(rem - a, a):
                yield (a,) + rest

    for t in range(1, total + 1):
        yield from rec(t, 1)


# -- base values ----------------------------------------------------------------


def test_seed_value(vir):
    assert vir.raw_correlator(0, [1]) == S * U * V


def test_genus_one_single_insertion_vanishes(vir):
    assert vir.raw_correlator(1, [1]).is_zero()


def test_one_step_of_the_constraint(vir):
    # eliminating the part 2 leaves only the (u+v)-term against the seed
    assert vir.raw_correlator(0, [2]) == Fraction(1, 2) * S ** 2 * U * V * (U + V)
    # cross-check: the weighted value is the x^{-3} series coefficient
    assert 2 * vir.raw_correlator(0, [2]) == S ** 2 * U * V * (U + V)


def test_genus_one_three(vir):
    assert vir.raw_correlator(1, [3]) == Fraction(1, 3) * S ** 3 * U * V
    assert vir.weighted_correlator(1, [3]) == S ** 3 * U * V


def test_weighted_values(vir):
    assert vir.weighted_correlator(0, [1, 1, 1]) == 2 * S ** 3 * U * V
    assert vir.weighted_correlator(0, [4]) == S ** 4 * U * V * (
        U ** 3 + 6 * U ** 2 * V + 6 * U * V ** 2 + V ** 3
    )
    assert vir.weighted_correlator(0, [1]) == S * U * V


def test_inputs_are_validated(vir):
    with pytest.raises(ValueError):
        vir.raw_correlator(-1, [1])
    with pytest.raises(ValueError):
        vir.raw_correlator(0, [])
    with pytest.raises(ValueError):
        vir.raw_correlator(0, [0, 2])


# -- n-point series ---------------------------------------------------------------


def test_one_point_series_matches_narayana_rows(vir):
    series = vir.npoint_series(0, 1, 6)
    for n in range(1, 6):
        assert series.coefficient((n,)) == narayana_one_point_law(n)


def test_genus_one_series_leading_term(vir):
    series = vir.npoint_series(1, 1, 7)
    assert series.coefficient((3,)) == U * V * S ** 3


def test_two_point_at_one_one(vir):
    assert vir.npoint_series(0, 2, 5).coefficient((1, 1)) == S ** 2 * U * V


def test_npoint_symmetry_and_window(vir):
    series = vir.npoint_series(0, 2, 8)
    assert series.coefficient((1, 3)) == series.coefficient((3, 1))
    with pytest.raises(SeriesWindowError):
        series.coefficient((5, 3))
    with pytest.raises(ValueError):
        vir.npoint_series(0, 3, 5)  # order below the smallest 3-slot tuple


# -- all-genus one-point oracle ----------------------------------------------------


def test_one_point_all_genus_small(vir):
    assert vir.one_point_all_genus(1) == S * U * V
    assert vir.one_point_all_genus(2) == S ** 2 * U * V * (U + V)
    assert vir.one_point_all_genus(3) == S ** 3 * U * V * (U ** 2 + 3 * U * V + V ** 2 + 1)


def test_one_point_all_genus_is_n_times_the_sum_of_raw_correlators(vir):
    for n in range(1, 13):
        total = LaurentPolynomial.zero()
        for g in range((n - 1) // 2 + 1):
            total = total + vir.raw_correlator(g, (n,))
        assert vir.one_point_all_genus(n) == n * total, n


def test_kp_formula_values(vir):
    assert vir.kp_one_point(1) == S * U * V
    # direct two-term evaluation of the finite sum
    expected2 = Fraction(1, 2) * S ** 2 * U * V * ((U + 1) * (V + 1) - (U - 1) * (V - 1))
    assert vir.kp_one_point(2) == expected2
    assert vir.kp_one_point(3) == S ** 3 * U * V * (U ** 2 + 3 * U * V + V ** 2 + 1)


def kp_one_point_by_products(n):
    """The oracle's finite sum evaluated term by term with Fraction polynomial products."""
    total = 0
    for i in range(n):
        j = n - 1 - i
        term = Fraction((-1) ** j, factorial(i) * factorial(j))
        for a in range(1, i + 1):
            term = term * (U + a) * (V + a)
        for b in range(1, j + 1):
            term = term * (U - b) * (V - b)
        total = total + term
    return S ** n * U * V * total * Fraction(1, n)


def test_kp_outer_products_match_the_term_by_term_sum():
    for n in range(1, 13):
        assert VirasoroEngine.kp_one_point(n) == kp_one_point_by_products(n), n


def test_oracle_equality(vir):
    for n in range(1, 13):
        assert vir.one_point_all_genus(n) == vir.kp_one_point(n), n


# -- structural laws ----------------------------------------------------------------


def test_strategy_independence():
    largest = VirasoroEngine(strategy="largest")
    smallest = VirasoroEngine(strategy="smallest")
    for parts in partitions_up_to(12):
        for g in range(3):
            assert largest.raw_correlator(g, parts) == smallest.raw_correlator(g, parts), (g, parts)


def test_degree_laws_divisibility_and_symmetry(vir):
    for parts in partitions_up_to(14):
        for g in range(4):
            value = vir.raw_correlator(g, parts)
            if value.is_zero():
                continue
            total = sum(parts)
            # s-degree law: exactly s^{sum parts}
            assert value.valuation("s") == total and value.degree("s") == total
            # divisible by u v
            assert value.valuation("u") >= 1 and value.valuation("v") >= 1
            # total (u,v)-degree law
            assert value.total_degree(("u", "v")) == total - len(parts) + 2 - 2 * g, (g, parts)
            # u <-> v symmetry
            assert value.substitute({"u": V, "v": U}) == value


def test_vanishing_bound(vir):
    for n in range(1, 15):
        for g in range(8):
            assert vir.raw_correlator(g, (n,)).is_zero() == (2 * g > n - 1), (g, n)


@st.composite
def genus_and_partition(draw):
    """A genus g <= 3 and a partition with sum <= 12."""
    parts, left = [], draw(st.integers(1, 12))
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return draw(st.integers(0, 3)), tuple(parts)


@settings(max_examples=200, deadline=None)
@given(genus_and_partition())
def test_stored_vector_is_graded_symmetric_and_divisible(vir, case):
    g, parts = case
    key = PartitionKey.make(g, parts)
    weighted = vir.weighted_correlator(g, parts)
    # keys of negative degree are zero without a table entry
    assert (key in vir.table.entries) == (key.degree >= 0)
    vec = vir.table.entries.get(key, ())
    assert len(vec) == max(key.degree + 1, 0)
    assert all(type(c) is int for c in vec)
    assert vec == vec[::-1]
    assert not vec or vec[0] == vec[-1] == 0
    assert weighted == prod(parts) * vir.raw_correlator(g, parts)


def test_put_rejects_a_vector_of_the_wrong_length():
    table = CorrelatorTable()
    with pytest.raises(ValueError):
        table.put(PartitionKey.make(0, (1,)), (0, 1))
    with pytest.raises(ValueError):
        table.put(PartitionKey.make(2, (1,)), (0,))  # degree -2: only () fits
    table.put(PartitionKey.make(0, (1,)), (0, 1, 0))
    assert table.entries == {PartitionKey.make(0, (1,)): (0, 1, 0)}


def test_table_is_insertion_order_independent():
    first = VirasoroEngine()
    first.raw_correlator(1, (2, 3))
    first.raw_correlator(0, (5,))
    second = VirasoroEngine()
    second.raw_correlator(0, (5,))
    second.raw_correlator(1, (2, 3))
    shared = set(first.table.entries) & set(second.table.entries)
    assert all(first.table.entries[k] == second.table.entries[k] for k in shared)


# -- operator-form assembly -----------------------------------------------------------


@pytest.mark.parametrize("g,n", [(0, 2), (1, 0), (1, 1)])
def test_operator_form_matches_direct_recursion(vir, g, n):
    report = vir.operator_form_report(g, n, 8)
    assert report.passed, report.first_discrepancy


@pytest.mark.parametrize("g,n,order", [(2, 0, 12), (2, 1, 10)])
def test_operator_form_deep(vir, g, n, order):
    """Targets (2,1) at order 12 and (2,2) at order 10."""
    report = vir.operator_form_report(g, n, order)
    assert report.passed, report.first_discrepancy


def test_operator_form_at_the_smallest_orders(vir):
    """At orders 2(n+1) and 2(n+1)+1 some inputs hold no tuple; nothing is read
    from them, so the assembly still matches the recursion."""
    for g, n in [(1, 1), (2, 1), (1, 2)]:
        for order in (2 * n + 2, 2 * n + 3):
            report = vir.operator_form_report(g, n, order)
            assert report.passed and report.checked_count >= 1, (g, n, order)


def test_operator_form_leading_coefficient(vir):
    assembled = vir.assemble_operator_form(1, 0, 8)
    assert assembled.coefficient((3,)) == U * V * S ** 3


def test_operator_form_rejects_tiny_order(vir):
    with pytest.raises(ValueError):
        vir.assemble_operator_form(0, 2, 4)
    with pytest.raises(ValueError):
        vir.assemble_operator_form(0, 0, 8)  # target (0,1) is unstable


def test_operator_form_agrees_with_closed_three_point(vir):
    assembled = vir.assemble_operator_form(0, 2, 9)
    closed = dessin_closed_series("G03", 9)
    assert assembled.first_difference(closed) is None


# -- cache persistence -----------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    engine = VirasoroEngine()
    for g in range(3):
        for n in range(1, 4):
            if 2 * g - 2 + n > 0 or (g, n) in ((0, 1), (0, 2)):
                engine.npoint_series(g, n, 12)
    assert len(engine.table) >= 100
    path = tmp_path / "table.json"
    engine.table.save(path)
    loaded = CorrelatorTable.load(path)
    assert loaded == engine.table


def test_cache_version_mismatch(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"version": 99, "alphabet": ["s","u","v"], "entries": []}')
    with pytest.raises(CacheFormatError):
        CorrelatorTable.load(path)


def test_cache_corrupt_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"version": 2, "entries": [{"g": 0}]}')
    with pytest.raises(CacheFormatError):
        CorrelatorTable.load(path)
    path.write_text("not json at all")
    with pytest.raises(CacheFormatError):
        CorrelatorTable.load(path)


BAD_CACHES = {
    "v1": {"version": 1, "alphabet": ["s", "u", "v"],
           "entries": [{"g": 0, "parts": [1], "poly": [{"e": [1, 1, 1], "c": "1/1"}]}]},
    "not-an-object": [],
    "wrong-length": {"version": 2, "entries": [{"g": 0, "parts": [1], "w": [0, 1, 1, 0]}]},
    "float-coefficient": {"version": 2, "entries": [{"g": 0, "parts": [1], "w": [0, 1.0, 0]}]},
    "string-coefficient": {"version": 2, "entries": [{"g": 0, "parts": [1], "w": [0, "1", 0]}]},
    "bool-coefficient": {"version": 2, "entries": [{"g": 0, "parts": [1], "w": [0, True, 0]}]},
    "not-palindromic": {"version": 2, "entries": [{"g": 0, "parts": [2], "w": [0, 1, 2, 0]}]},
    # keys that hash equal to the real ones
    "float-genus": {"version": 2, "entries": [{"g": 0.0, "parts": [1], "w": [0, 1, 0]}]},
    "bool-genus": {"version": 2, "entries": [{"g": False, "parts": [1], "w": [0, 1, 0]}]},
    "float-part": {"version": 2, "entries": [{"g": 0, "parts": [1.0], "w": [0, 1, 0]}]},
    "bool-part": {"version": 2, "entries": [{"g": 0, "parts": [True], "w": [0, 1, 0]}]},
    "duplicate-entry": {"version": 2, "entries": [{"g": 0, "parts": [2], "w": [0, 1, 1, 0]},
                                                  {"g": 0, "parts": [2], "w": [0, 7, 7, 0]}]},
    "negative-genus": {"version": 2, "entries": [{"g": -1, "parts": [1], "w": [0, 1, 0]}]},
    "zero-part": {"version": 2, "entries": [{"g": 0, "parts": [0, 1], "w": [0, 1, 0]}]},
    "empty-parts": {"version": 2, "entries": [{"g": 0, "parts": [], "w": [0, 1, 0]}]},
}


@pytest.mark.parametrize("name", sorted(BAD_CACHES))
def test_cache_load_rejects_bad_entries(tmp_path, name):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(BAD_CACHES[name]))
    with pytest.raises(CacheFormatError):
        CorrelatorTable.load(path)


@pytest.mark.parametrize("name", sorted(BAD_CACHES))
def test_cli_exits_two_on_bad_cache(tmp_path, capsys, name):
    (tmp_path / cli.CACHE_FILE).write_text(json.dumps(BAD_CACHES[name]))
    assert cli.main(["correlator", "--genus", "0", "--parts", "1", "--cache", str(tmp_path)]) == 2
    assert "correlator cache" in capsys.readouterr().err


# The table a cache-stream run starts from: every (g, n, order) below filled.
FULL_TARGETS = [(g, 1, 16) for g in range(3)] + [(g, n, 14) for n in (2, 3) for g in range(3)] + [
    (g, 4, 14) for g in range(2)]
# sha256 of the bytes CorrelatorTable.save writes for that table: cache
# format v2, pinned so that a change to the key type cannot move it.
FULL_TABLE_SHA256 = "d108cbf8365d8a8b9ff42987e0430f4da06efc7e4633ac4c6a82e3da16e1b03d"


@pytest.fixture(scope="module")
def full_table():
    engine = VirasoroEngine()
    for g, n, order in FULL_TARGETS:
        engine.npoint_series(g, n, order)
    return engine.table


@pytest.fixture(scope="module")
def full_entries(full_table, tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "table.json"
    full_table.save(path)
    return json.loads(path.read_text())["entries"]


def _edit(name, change):
    return lambda entry: [dict(entry, **{name: change(entry[name])})]


# Each BAD_CACHES kind, and the three key-contract kinds, as the entries that
# replace one good entry.  w[0] is 0 in every stored vector and mirrors w[-1],
# so the coefficient edits keep the length and the u<->v symmetry.
ENTRY_CORRUPTIONS = {
    "v1": lambda entry: [{"g": entry["g"], "parts": entry["parts"], "poly": [{"e": [1, 1, 1], "c": "1/1"}]}],
    "not-an-object": lambda entry: [[]],
    "wrong-length": _edit("w", lambda w: [0] + w + [0]),
    "float-coefficient": _edit("w", lambda w: [0.0] + w[1:]),
    "string-coefficient": _edit("w", lambda w: ["0"] + w[1:]),
    "bool-coefficient": _edit("w", lambda w: [False] + w[1:]),
    "not-palindromic": _edit("w", lambda w: [w[0] + 1] + w[1:]),
    "float-genus": _edit("g", float),
    "bool-genus": _edit("g", bool),
    "float-part": _edit("parts", lambda parts: [float(parts[0])] + parts[1:]),
    "bool-part": _edit("parts", lambda parts: [bool(parts[0])] + parts[1:]),
    "duplicate-entry": lambda entry: [entry, dict(entry, w=[2 * c for c in entry["w"]])],
    "negative-genus": _edit("g", lambda g: -1 - g),
    "zero-part": _edit("parts", lambda parts: [0] + parts[1:]),
    "empty-parts": _edit("parts", lambda parts: []),
}


def test_every_bad_cache_kind_has_an_entry_corruption():
    assert set(ENTRY_CORRUPTIONS) == set(BAD_CACHES)


def _corrupted_cache(full_entries, path, name, where):
    entries = list(full_entries)
    i = {"first": 0, "middle": len(entries) // 2, "last": len(entries) - 1}[where]
    assert len(entries[i]["w"]) >= 2
    entries[i : i + 1] = ENTRY_CORRUPTIONS[name](entries[i])
    path.write_text(json.dumps({"version": 2, "entries": entries}))


def test_the_full_size_cache_loads_unchanged(full_table, full_entries, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"version": 2, "entries": full_entries}))
    assert len(full_entries) == len(full_table) >= 365
    assert CorrelatorTable.load(path) == full_table


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("name", sorted(ENTRY_CORRUPTIONS))
def test_full_size_cache_rejects_a_bad_entry_anywhere(full_entries, tmp_path, capsys, name, where):
    _corrupted_cache(full_entries, tmp_path / cli.CACHE_FILE, name, where)
    with pytest.raises(CacheFormatError):
        CorrelatorTable.load(tmp_path / cli.CACHE_FILE)
    assert cli.main(["correlator", "--genus", "0", "--parts", "1", "--cache", str(tmp_path)]) == 2
    assert "correlator cache" in capsys.readouterr().err


def test_saved_bytes_match_the_pinned_digest(full_table, tmp_path):
    path = tmp_path / "table.json"
    full_table.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_TABLE_SHA256


def test_partition_key_contract():
    key = PartitionKey.make(1, [3, 1, 2, 1])
    assert key.parts == (1, 1, 2, 3) and key.genus == 1
    assert key.degree == 7 - 4 + 2 - 2
    assert repr(key) == "PartitionKey(genus=1, parts=(1, 1, 2, 3))"
    assert key == PartitionKey.make(1, (1, 2, 3, 1)) and hash(key) == hash(PartitionKey.make(1, [2, 1, 3, 1]))
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        PartitionKey.make(-1, (1,))
    for parts in [(), (0,), (2, 0), (3, -1, 2)]:
        with pytest.raises(ValueError, match="nonempty multiset of positive integers"):
            PartitionKey.make(0, parts)


def test_cache_stores_integer_vectors(tmp_path):
    engine = VirasoroEngine()
    engine.raw_correlator(0, (2,))
    path = tmp_path / "table.json"
    engine.table.save(path)
    assert json.loads(path.read_text()) == {
        "version": 2,
        "entries": [{"g": 0, "parts": [1], "w": [0, 1, 0]}, {"g": 0, "parts": [2], "w": [0, 1, 1, 0]}],
    }


def _assert_failed_save_keeps_the_old_cache(tmp_path, monkeypatch, target, name, failing):
    engine = VirasoroEngine()
    engine.raw_correlator(0, (3,))
    path = tmp_path / "table.json"
    engine.table.save(path)
    before, saved = path.read_bytes(), CorrelatorTable.load(path)
    engine.raw_correlator(1, (4, 2))

    monkeypatch.setattr(target, name, failing)
    with pytest.raises(OSError):
        engine.table.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert CorrelatorTable.load(path) == saved
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_interrupted_save_keeps_the_old_cache(tmp_path, monkeypatch):
    def fail(obj, **kwargs):
        raise OSError("out of memory")

    _assert_failed_save_keeps_the_old_cache(tmp_path, monkeypatch, json, "dumps", fail)


def test_failed_rename_keeps_the_old_cache(tmp_path, monkeypatch):
    def fail_after_write(src, dst):
        assert os.path.getsize(src) > 0  # the temporary file was written
        raise OSError("disk full")

    _assert_failed_save_keeps_the_old_cache(tmp_path, monkeypatch, os, "replace", fail_after_write)


def test_cache_load_extend_save_is_superset(tmp_path):
    engine = VirasoroEngine()
    engine.raw_correlator(0, (3,))
    path = tmp_path / "table.json"
    engine.table.save(path)
    before = set(CorrelatorTable.load(path).entries)

    extended = VirasoroEngine(CorrelatorTable.load(path))
    extended.raw_correlator(1, (4, 2))
    extended.table.save(path)
    after = CorrelatorTable.load(path)
    assert before <= set(after.entries)
    assert PartitionKey.make(1, (2, 4)) in after.entries


def test_cache_hit_statistics():
    engine = VirasoroEngine()
    engine.raw_correlator(0, (4,))
    misses = engine.table.misses
    engine.raw_correlator(0, (4,))
    assert engine.table.hits >= 1
    assert engine.table.misses == misses
