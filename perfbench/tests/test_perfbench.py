"""Tests of the benchmark's own arithmetic: self times, digests, metric names."""

import json
import sys
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import digests  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def span_tree(rows):
    """rows: (name, parent index, start, end) -> the arrays spans.self_times takes."""
    names = sorted({row[0] for row in rows})
    return (
        names,
        array("i", [names.index(row[0]) for row in rows]),
        array("i", [row[1] for row in rows]),
        array("d", [row[2] for row in rows]),
        array("d", [row[3] for row in rows]),
    )


def test_self_time_subtracts_the_union_of_children():
    rows = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 3.0),
        ("a", 0, 2.0, 5.0),   # overlaps the first child: [1, 5] is covered once
        ("b", 0, 8.0, 12.0),  # runs past its parent: only [8, 10] counts
        ("c", 1, 1.5, 2.5),   # grandchild: counts against its own parent only
    ]
    out = spans.self_times(*span_tree(rows))
    assert out["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert out["a"]["calls"] == 2
    assert out["a"]["total_s"] == 5.0
    assert out["a"]["self_s"] == 4.0
    assert out["b"]["self_s"] == 4.0
    assert out["c"]["self_s"] == 1.0


def test_recorder_round_trip(tmp_path):
    rec = spans.Recorder()
    outer = rec.open(rec.name_id("outer"))
    inner = rec.open(rec.name_id("inner"))
    assert rec.current_name() == "inner"
    rec.close(inner)
    rec.close(outer)
    assert rec.current_name() is None
    rec.write(tmp_path / "spans.bin")
    names, name_ids, parents, starts, ends = spans.read(tmp_path / "spans.bin")
    assert names == ["outer", "inner"]
    assert list(parents) == [-1, 0]
    assert starts[0] <= starts[1] <= ends[1] <= ends[0]
    out = spans.self_times(names, name_ids, parents, starts, ends)
    assert abs(out["outer"]["self_s"] + out["inner"]["total_s"] - out["outer"]["total_s"]) < 1e-12


def test_digest_rejects_a_tampered_output():
    terms = [{"e": [2, 1, 2], "c": "2/1"}, {"e": [2, 2, 1], "c": "2/1"}]
    payload = {"genus": 0, "parts": [2], "weighted": True, "poly": {"alphabet": ["s", "u", "v"], "terms": terms}}
    expected = {"correlator --genus 0 --parts 2 --weighted": digests.digest(payload)}
    tampered = json.loads(json.dumps(payload))
    tampered["poly"]["terms"][1]["c"] = "3/1"
    assert digests.mismatches(expected, {k: digests.digest(payload) for k in expected}) == []
    assert digests.mismatches(expected, {k: digests.digest(tampered) for k in expected}) == list(expected)


def test_digest_ignores_timing_and_key_order():
    a = {"suite": "x", "status": "pass", "elapsed_ms": 12}
    b = {"status": "pass", "suite": "x", "elapsed_ms": 99}
    assert digests.digest(a) == digests.digest(b)
    assert digests.max_bits({"terms": [{"c": "-5/1024"}, {"c": "3/4+1/2*i"}]}) == 11


def test_metric_names_match_benchmark_json_and_workloads():
    import workloads
    from dessin import cli

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(json.loads(digests.REFERENCE_PATH.read_text())) == set(run.WORKLOADS)
    assert [f"g{g}n{n}" for g, n, _ in sorted(workloads.EO_TARGETS)] == list(run.EO_FORMS)
    assert [name for name, _, _ in cli.acceptance_matrix()] == list(run.SUITES)
