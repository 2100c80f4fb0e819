"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --workdir DIR

Modes:
  setup    set up, report the set-up window, exit
  pass     set up, run the timed phase, check every output
  suites   as pass, and time each suite of ``verify --all`` by wrapping the
           runners that ``cli.acceptance_matrix()`` returns
  traced   as pass, with every layer wrapped in spans and counters; the
           spans are written to DIR/spans-NAME.bin

The speed sampler (``calibrate.py``) starts before the program is imported
and runs until the timed phase ends.  Durations in the result are in
reference seconds unless their key says ``raw``.  The result is one JSON
object on the last line of stdout; ``setup_end`` is a ``time.monotonic``
stamp, a clock the parent process shares.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedSampler

QUERY_MARGIN_S = 0.25  # speed samples this close to a query count toward its factor
SETUP_BURST = 10


def time_suites(cli, sampler: SpeedSampler, suite_times: dict) -> None:
    """Wrap each runner of the acceptance matrix in a timer."""
    matrix = cli.acceptance_matrix

    def timed_matrix():
        entries = []
        for name, required, runner in matrix():
            def timed(name=name, runner=runner):
                t0 = time.perf_counter()
                try:
                    return runner()
                finally:
                    suite_times[name] = suite_times.get(name, 0.0) + sampler.normalize(t0, time.perf_counter())
            entries.append((name, required, timed))
        return entries

    cli.acceptance_matrix = timed_matrix


def main(argv=None) -> int:
    sampler = SpeedSampler()
    sampler.start()
    t_begin = time.perf_counter()

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "suites", "traced"))
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.workdir)
    setup_end, t_setup = time.monotonic(), time.perf_counter()
    sampler.burst(SETUP_BURST)
    result = {
        "setup_end": setup_end,
        "setup_overhead_raw_s": sampler.overhead(t_begin, t_setup),
        "setup_factor": sampler.factor(t_begin, time.perf_counter()),
    }
    try:
        if args.mode != "setup":
            result.update(timed_phase(workload, args, sampler))
    finally:
        sampler.stop()
        workload.cleanup()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def timed_phase(workload, args, sampler: SpeedSampler) -> dict:
    import digests

    suite_times: dict = {}
    tracer = None
    if args.mode == "suites":
        from dessin import cli
        time_suites(cli, sampler, suite_times)
    elif args.mode == "traced":
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = []
    t_start = time.perf_counter()
    for op in workload.start():
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception:  # a crash is a failed operation, not a failed run
            out, error = None, traceback.format_exc(limit=3)
        outputs.append((op.key, t0, time.perf_counter(), out, error))
    t_end = time.perf_counter()
    sampler.stop()
    wall = sampler.normalize(t_start, t_end)
    if workload.cli_queries:
        queries = [sampler.normalize(t0, t1, QUERY_MARGIN_S) for _, t0, t1, _, _ in outputs]
    else:
        queries = [wall]

    if tracer is not None:
        tracer.rec.write(args.workdir / f"spans-{workload.name}.bin")

    reference = digests.load_reference().get(workload.name, {}).get("ops", {})
    op_digests, errors, bits, stdout_bytes = {}, [], 0, 0
    for key, _, _, out, error in outputs:
        if error is None:
            payload, ok = workload.payload(out)
            if isinstance(out, tuple):
                stdout_bytes += len(out[1].encode())
            op_digests[key] = digests.digest(payload)
            bits = max(bits, digests.max_bits(payload))
            if not ok:
                error = "operation reported failure: " + digests.canonical(payload).decode()[:300]
            elif reference.get(key) != op_digests[key]:
                error = "output digest differs from the reference"
        if error is not None:
            errors.append({"op": key, "error": error})
    if tracer is not None:
        bits = max([bits] + [digests.max_bits(payload) for payload in workload.extra_payloads()])

    result = {
        "wall_s": wall,
        "wall_raw_s": t_end - t_start,
        "factor": sampler.factor(t_start, t_end),
        "query_latencies_s": queries,
        "attempted": len(outputs),
        "failed": len(errors),
        "errors": errors[:10],
        "op_digests": op_digests,
        "stdout_bytes": stdout_bytes,
        "max_bits": bits,
        "suite_times": suite_times,
    }
    if tracer is not None:
        result["counts"] = tracer.counts
        result["form_terms"] = tracer.form_terms
    return result


if __name__ == "__main__":
    sys.exit(main())
