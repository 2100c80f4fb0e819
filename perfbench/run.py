"""The dessin benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from a source checkout; it needs ``src/dessin`` beside this directory
and exits with code 2 without a result when that is missing.  Every pass runs
in a fresh single-threaded interpreter (``worker.py``) with ``src`` on its
path, sets the workload up, runs its timed phase and checks every output
against ``reference.json``.  Scratch files go to ``.perfbench/`` at the
checkout root.

Durations are in reference seconds: each worker samples the machine's speed
on its own thread with a fixed kernel and scales its windows to a machine
where that kernel takes 1 ms (``calibrate.py``), because a shared machine's
speed drifts by up to 1.9x.  The line before the result gives the raw medians
beside them.

``--trace 0`` starts passes until their timed phases add up to ``--seconds``
reference seconds (at least one pass), so that the number of passes does not
depend on the machine's speed, and set-up-only interpreters until there are
five set-up samples.  It reports, with medians over passes:

  wall_s        time to solution of the timed phase
  setup_s       interpreter start to the start of the timed phase (median of
                the set-up samples)
  query_p50_ms  median query latency; a query is one CLI call on cache-stream
  query_p90_ms  and verify-all, and the whole timed phase on the batch
                workloads vir-fill and eo-crosscheck, whose calls share one
                engine and so have no independent latency
  peak_rss_mb   peak resident memory of a pass

``--trace 1`` runs two pairs of passes: an untraced pass, which also times
each suite of ``verify --all``, then a pass with every layer wrapped in
spans and counters (``layers.py``).  It reports the per-layer metrics,
averaged over the pairs, and ``trace.overhead_s``, the traced wall time
minus the untraced one.  Counts are exact; the run's details say whether
they repeated between the two traced passes.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  An operation (one top-level call or CLI query) fails on an
exception, a non-zero exit, a failing report or an output digest that differs
from the reference; failures are counted and the run goes on.  The line
before it stamps the environment (Python version, nproc, CPU model) and the
run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("vir-fill", "eo-crosscheck", "cache-stream", "verify-all")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 9
SETUP_SAMPLES = 5
TRACE_PAIRS = 2
RUN_BUDGET_S = 170.0  # every run ends within 180 s

EO_FORMS = ("g0n3", "g0n4", "g0n5", "g0n6", "g1n1", "g1n2", "g1n3", "g2n1", "g2n2", "g3n1")
SUITES = ("one-point-fixtures", "narayana-law", "two-point-closed", "fixture-forms", "eo-base", "main-theorem",
          "kp-oracle", "operator-form", "airy-local", "catalog", "identities")

END_TO_END = {"wall_s": "s", "setup_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    units = {
        "laurent.mul_calls": "count", "laurent.mul_pairs": "count", "laurent.mul_self_s": "s",
        "laurent.add_calls": "count", "laurent.add_self_s": "s", "laurent.max_terms": "count",
        "laurent.substitute_self_s": "s", "laurent.from_json_self_s": "s", "laurent.to_json_self_s": "s",
        "coeffs.max_bits": "bits",
        "series.mul_calls": "count", "series.mul_self_s": "s", "series.invert_self_s": "s",
        "series.sqrt_self_s": "s", "series.window_errors": "count",
        "npoint.self_s": "s", "npoint.coeff_lookups": "count",
        "virasoro.self_s": "s", "virasoro.memo_entries": "count", "virasoro.memo_hits": "count",
        "virasoro.memo_misses": "count", "virasoro.hit_ratio": "ratio", "virasoro.cache_load_s": "s",
        "virasoro.cache_save_s": "s", "virasoro.cache_bytes": "bytes",
    }
    units.update({f"eo.omega.{form}.self_s": "s" for form in EO_FORMS})
    units.update({f"eo.to_x.{form}.self_s": "s" for form in EO_FORMS})
    units["eo.check_invariants_self_s"] = "s"
    units.update({f"eo.form_terms.{form}": "count" for form in EO_FORMS})
    units.update({"report.compare_self_s": "s", "report.checks": "count",
                  "closedforms.self_s": "s", "airy.self_s": "s", "cli.self_s": "s", "cli.stdout_bytes": "bytes"})
    units.update({f"verify.{suite}.s": "s" for suite in SUITES})
    units["trace.overhead_s"] = "s"
    return units


class WorkerError(Exception):
    pass


class Run:
    """Starts worker interpreters for one workload and keeps the tally."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.errors: List[dict] = []
        self.details: dict = {}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--workdir", str(WORKDIR)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} worker timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        result = json.loads(lines[-1])
        result["setup_raw_s"] = result["setup_end"] - t0
        result["setup_s"] = (result["setup_raw_s"] - result["setup_overhead_raw_s"]) * result["setup_factor"]
        result["elapsed_s"] = time.monotonic() - t0
        return result

    def measured_pass(self, mode: str):
        """One pass whose operations count; a crashed worker counts as one failed operation."""
        try:
            result = self.spawn(mode)
        except WorkerError as exc:
            self.attempted += 1
            self.failed += 1
            self.errors.append({"op": f"{mode} pass", "error": str(exc)})
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors.extend(result["errors"])
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    passes, setups = [], []
    while True:
        result = run.measured_pass("pass")
        if result is None:
            break
        passes.append(result)
        setups.append(result)
        if sum(p["wall_s"] for p in passes) >= seconds or run.time_left() < 2 * result["elapsed_s"]:
            break
    if not passes:
        raise WorkerError("no pass completed")
    while len(setups) < SETUP_SAMPLES and run.time_left() > 2 * max(s["elapsed_s"] for s in setups):
        setups.append(run.spawn("setup"))
    queries = [lat for p in passes for lat in p["query_latencies_s"]]
    run.details = {
        "passes": len(passes), "setup_samples": len(setups),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "speed_factor": statistics.median(p["factor"] for p in passes),
    }
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "query_p50_ms": 1000 * percentile(queries, 50),
        "query_p90_ms": 1000 * percentile(queries, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def traced(run: Run) -> Dict[str, float]:
    """Untraced and traced passes in alternation; per-layer values are means over the pairs."""
    pairs = []
    for _ in range(TRACE_PAIRS):
        plain = run.measured_pass("suites")
        trace = run.measured_pass("traced")
        if plain is None or trace is None:
            raise WorkerError("traced run did not complete")
        by_name = spans.self_times(*spans.read(WORKDIR / f"spans-{run.workload}.bin"))
        pairs.append(layer_metrics(by_name, trace, plain))
    units = per_layer_units()
    counts = [name for name, unit in units.items() if unit != "s"]
    run.details = {"trace_pairs": len(pairs),
                   "counts_repeat": all(pair[name] == pairs[0][name] for pair in pairs for name in counts)}
    return {name: statistics.mean(pair[name] for pair in pairs) for name in units}


def layer_metrics(by_name: Dict[str, dict], trace: dict, plain: dict) -> Dict[str, float]:
    """Per-layer values of one pair; span times are scaled by the traced pass's speed factor."""
    scale = trace["factor"]

    def self_of(name: str) -> float:
        return scale * by_name.get(name, {}).get("self_s", 0.0)

    def total_of(name: str) -> float:
        return scale * by_name.get(name, {}).get("total_s", 0.0)

    def layer_self(layer: str, exclude=()) -> float:
        return scale * sum(row["self_s"] for name, row in by_name.items()
                           if name.split(".")[0] == layer and name not in exclude)

    counts = trace["counts"]
    lookups = counts["virasoro.memo_hits"] + counts["virasoro.memo_misses"]
    out = {
        "laurent.mul_calls": counts["laurent.mul_calls"],
        "laurent.mul_pairs": counts["laurent.mul_pairs"],
        "laurent.mul_self_s": self_of("laurent.mul"),
        "laurent.add_calls": counts["laurent.add_calls"],
        "laurent.add_self_s": self_of("laurent.add"),
        "laurent.max_terms": counts["laurent.max_terms"],
        "laurent.substitute_self_s": self_of("laurent.substitute"),
        "laurent.from_json_self_s": self_of("laurent.from_json"),
        "laurent.to_json_self_s": self_of("laurent.to_json"),
        "coeffs.max_bits": trace["max_bits"],
        "series.mul_calls": counts["series.mul_calls"],
        "series.mul_self_s": self_of("series.mul"),
        "series.invert_self_s": self_of("series.invert"),
        "series.sqrt_self_s": self_of("series.sqrt"),
        "series.window_errors": counts["series.window_errors"],
        "npoint.self_s": layer_self("npoint"),
        "npoint.coeff_lookups": counts["npoint.coeff_lookups"],
        "virasoro.self_s": layer_self("virasoro", exclude=("virasoro.cache_load", "virasoro.cache_save")),
        "virasoro.memo_entries": counts["virasoro.memo_entries"],
        "virasoro.memo_hits": counts["virasoro.memo_hits"],
        "virasoro.memo_misses": counts["virasoro.memo_misses"],
        "virasoro.hit_ratio": counts["virasoro.memo_hits"] / lookups if lookups else 0.0,
        "virasoro.cache_load_s": total_of("virasoro.cache_load"),
        "virasoro.cache_save_s": total_of("virasoro.cache_save"),
        "virasoro.cache_bytes": counts["virasoro.cache_bytes"],
    }
    for form in EO_FORMS:
        out[f"eo.omega.{form}.self_s"] = self_of(f"eo.omega.{form}")
        out[f"eo.to_x.{form}.self_s"] = self_of(f"eo.to_x.{form}")
    out["eo.check_invariants_self_s"] = self_of("eo.check_invariants")
    for form in EO_FORMS:
        out[f"eo.form_terms.{form}"] = trace["form_terms"].get(form, 0)
    out.update({
        "report.compare_self_s": self_of("report.compare"),
        "report.checks": counts["report.checks"],
        "closedforms.self_s": layer_self("closedforms"),
        "airy.self_s": layer_self("airy"),
        "cli.self_s": layer_self("cli"),
        "cli.stdout_bytes": trace["stdout_bytes"],
    })
    for suite in SUITES:
        out[f"verify.{suite}.s"] = plain["suite_times"].get(suite, 0.0)
    out["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dessin" / "__init__.py").is_file():
        print(f"error: no dessin sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        values = traced(run) if args.trace else end_to_end(run, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}; {json.dumps(run.errors[:3])}", file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **run.details, "errors": run.errors[:10]}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
