"""Regenerate ``reference.json`` from the current program, with cross-checks.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on code whose values are trusted: the benchmark fails every
operation whose output digest differs from this file.  Before writing, it
checks the outputs against routes independent of the timed code:

- vir-fill: for n <= 8, where genus <= 3 is the whole sum, the one-point
  series of genus 0..3 add up to the explicit finite-sum oracle
  ``VirasoroEngine.kp_one_point(n)``;
- cache-stream: the stdout of every query against the warm cache equals,
  byte for byte, its stdout against an empty cache, so a warm cache changes
  no value.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import digests
from dessin.laurent import LaurentPolynomial
from dessin.virasoro import VirasoroEngine
from workloads import WORKLOADS, CacheStream, VirFill, run_cli

SEED = 0


def replay(workload, workdir: Path):
    """Set the workload up and run its operations; returns [(key, output)]."""
    workload.setup(SEED, workdir)
    try:
        return [(op.key, op.call()) for op in workload.start()]
    finally:
        workload.cleanup()


def check_one_point_oracle(outputs) -> None:
    series = [out for key, out in outputs if " n=1 " in key]
    if len(series) != 4:
        raise SystemExit(f"vir-fill should have four one-point targets, found {len(series)}")
    for n in range(1, 9):
        total = sum((s.coefficient((n,)) for s in series), LaurentPolynomial.zero())
        if total != VirasoroEngine.kp_one_point(n):
            raise SystemExit(f"vir-fill one-point sum at n={n} disagrees with kp_one_point")


def check_cold_replay(outputs, workdir: Path) -> None:
    cold_dir = workdir / "cold"
    for key, (code, warm) in outputs:
        shutil.rmtree(cold_dir, ignore_errors=True)
        cold_code, cold = run_cli(key.split() + ["--cache", str(cold_dir)])
        if (cold_code, cold) != (code, warm):
            raise SystemExit(f"cache-stream query {key!r}: warm output differs from a cold replay")


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        workdir = Path(tmp)
        for name, cls in WORKLOADS.items():
            workload = cls()
            outputs = replay(workload, workdir)
            ops = {}
            for key, out in outputs:
                payload, ok = workload.payload(out)
                if not ok:
                    raise SystemExit(f"{name}: operation {key!r} failed: {digests.canonical(payload)[:300]!r}")
                ops[key] = digests.digest(payload)
            if isinstance(workload, VirFill):
                check_one_point_oracle(outputs)
            if isinstance(workload, CacheStream):
                check_cold_replay(outputs, workdir)
            reference[name] = {"digest": digests.workload_digest(ops), "ops": dict(sorted(ops.items()))}
            print(f"{name}: {len(ops)} distinct operations, digest {reference[name]['digest'][:16]}", file=sys.stderr)
    with open(digests.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
