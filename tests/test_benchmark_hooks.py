"""The benchmark's tracer wraps package functions and methods by name, so a
renamed or deleted name breaks it; this keeps such a change from passing."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


MEMO_COUNTERS = """
import sys
from layers import Tracer
tracer = Tracer()
tracer.install()
from dessin.virasoro import CorrelatorTable, VirasoroEngine
engine = VirasoroEngine()
engine.npoint_series(1, 2, 8)
engine.npoint_series(1, 2, 8)  # the fill reads its packed memo, not the table: hits come from the second read
counts = tracer.counts
memo = ("virasoro.memo_hits", "virasoro.memo_misses", "virasoro.memo_entries")
assert all(counts[name] > 0 for name in memo), {name: counts[name] for name in memo}
engine.table.save(sys.argv[1])
filled = counts["virasoro.memo_entries"]
assert len(CorrelatorTable.load(sys.argv[1])) == len(engine.table) > 0
assert counts["virasoro.memo_entries"] == filled, (filled, counts["virasoro.memo_entries"])
"""


def _run_traced(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", *argv], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_benchmark_tracer_installs():
    _run_traced("from layers import Tracer; Tracer().install()")


def test_the_memo_counters_count_memo_traffic_and_not_cache_loads(tmp_path):
    """The tracer counts table reads in CorrelatorTable.get and new entries in put;
    a lookup that read the table's dict directly would report zero without failing."""
    _run_traced(MEMO_COUNTERS, str(tmp_path / "table.json"))
