"""The four workloads: seeded request order, timed operations, output payloads.

Every workload is a fixed multiset of requests; the seed fixes their order.
One closed-loop client on one thread sends the next request when the
previous one has returned.  The program is reached only through its public
entry points: ``VirasoroEngine``, ``EOEngine``, ``CorrelatorTable`` and
``dessin.cli.main``.

Module attributes (``cli.main``) are looked up at call time, so a tracer
installed after set-up sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from dessin import cli
from dessin.eo import EOEngine
from dessin.virasoro import VirasoroEngine

Target = Tuple[int, int, int]  # (genus, number of points, order)

VIR_FILL_TARGETS: List[Target] = (
    [(g, 1, 20) for g in range(4)]
    + [(g, 2, 18) for g in range(3)]
    + [(g, 3, 16) for g in range(3)]
    + [(g, 4, 16) for g in range(3)]
)
EO_TARGETS: List[Target] = [
    (g, n, 10) for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
] + [(0, 6, 12)]
CACHE_BASE_TARGETS: List[Target] = (
    [(g, 1, 16) for g in range(3)]
    + [(g, 2, 14) for g in range(3)]
    + [(g, 3, 14) for g in range(3)]
    + [(g, 4, 14) for g in range(2)]
)
# The cache-stream request pool is drawn once from this fixed seed; the run's
# seed only orders it.  A fixed multiset keeps the total work, and so the
# reference digest, the same for every seed.
CACHE_POOL_SEED = 1907
CACHE_READS, CACHE_NPOINTS, CACHE_WRITES = 150, 30, 20
# Writes are random partitions with parts < 8, at most 3 parts and genus <= 2.
# Their part sum is capped so that a miss fills a few dozen memo entries at
# most: the workload measures the cache on disk, not the recursion.
WRITE_MAX_PART, WRITE_MAX_LEN, WRITE_MAX_GENUS, WRITE_MAX_SUM = 7, 3, 2, 13
VERIFY_ARGV = ["verify", "--all", "--seedless"]
VERIFY_SUMMARY = {"total": 11, "passed": 11, "failed": 0, "skipped": 0}


@dataclass
class Op:
    key: str
    call: Callable[[], object]


def index_tuples(n: int, order: int) -> Iterator[Tuple[int, ...]]:
    """Sorted tuples 1 <= a_1 <= ... <= a_n with sum(a_i + 1) <= order.

    The same set as ``dessin.npoint.index_tuples``, kept here so that the
    benchmark's inputs cannot change when the program under test does."""
    def rec(remaining: int, lo: int, budget: int):
        if remaining == 0:
            yield ()
            return
        for a in range(lo, budget):
            if (a + 1) * remaining > budget:
                break
            for rest in rec(remaining - 1, a, budget - a - 1):
                yield (a,) + rest

    yield from rec(n, 1, order)


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """dessin.cli.main in-process with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments by exiting
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def cli_payload(out: Tuple[int, str]) -> Tuple[dict, bool]:
    code, text = out
    try:
        return {"exit": code, "output": json.loads(text)}, code == 0
    except json.JSONDecodeError:
        return {"exit": code, "raw": text}, False


class Workload:
    name = ""
    # A query is one CLI call on the CLI workloads; on the batch workloads,
    # whose calls share one engine, it is the whole timed phase.
    cli_queries = False

    def setup(self, seed: int, workdir: Path) -> None:
        """Build the inputs; everything here counts toward setup_s."""

    def start(self) -> List[Op]:
        """Called at the start of the timed phase; returns the operations in order."""
        raise NotImplementedError

    def payload(self, out) -> Tuple[object, bool]:
        """JSON payload of one output and whether the operation succeeded."""
        raise NotImplementedError

    def extra_payloads(self) -> List[object]:
        """Further values the run produced, besides the operations' outputs."""
        return []

    def cleanup(self) -> None:
        pass


class VirFill(Workload):
    name = "vir-fill"

    def setup(self, seed, workdir):
        self.targets = list(VIR_FILL_TARGETS)
        random.Random(seed).shuffle(self.targets)

    def start(self):
        engine = VirasoroEngine()
        return [Op(f"npoint g={g} n={n} order={o}", lambda g=g, n=n, o=o: engine.npoint_series(g, n, o))
                for g, n, o in self.targets]

    def payload(self, out):
        return out.to_json(), True


class EOCrosscheck(Workload):
    name = "eo-crosscheck"

    def setup(self, seed, workdir):
        self.targets = list(EO_TARGETS)
        random.Random(seed).shuffle(self.targets)

    def start(self):
        self.eo = eo = EOEngine()
        vir = VirasoroEngine()
        return [Op(f"main-theorem g={g} n={n} order={o}",
                   lambda g=g, n=n, o=o: eo.verify_main_theorem(g, n, o, vir))
                for g, n, o in self.targets]

    def payload(self, out):
        return out.to_json(include_elapsed=False), out.passed

    def extra_payloads(self):
        """The differentials w_{g,n}, memoized in the engine by the run."""
        return [self.eo.omega(g, n).to_json() for g, n, _ in self.targets]


def cache_requests() -> List[List[str]]:
    """The fixed request multiset of cache-stream, in pool order."""
    rng = random.Random(CACHE_POOL_SEED)
    cached = [(g, parts) for g, n, o in CACHE_BASE_TARGETS for parts in index_tuples(n, o)]
    requests = []
    for _ in range(CACHE_READS):
        g, parts = rng.choice(cached)
        requests.append(["correlator", "--genus", str(g), "--parts", ",".join(map(str, parts)), "--weighted"])
    for _ in range(CACHE_NPOINTS):
        g, n, o = rng.choice(CACHE_BASE_TARGETS)
        requests.append(["npoint", "--genus", str(g), "--n", str(n), "--order", str(o)])
    while len(requests) < CACHE_READS + CACHE_NPOINTS + CACHE_WRITES:
        g = rng.randint(0, WRITE_MAX_GENUS)
        parts = sorted(rng.randint(1, WRITE_MAX_PART) for _ in range(rng.randint(1, WRITE_MAX_LEN)))
        if sum(parts) <= WRITE_MAX_SUM:
            requests.append(["correlator", "--genus", str(g), "--parts", ",".join(map(str, parts))])
    return requests


class CacheStream(Workload):
    name = "cache-stream"
    cli_queries = True

    def setup(self, seed, workdir):
        engine = VirasoroEngine()
        for g, n, o in CACHE_BASE_TARGETS:
            engine.npoint_series(g, n, o)
        self.cache_dir = workdir / f"cache-{os.getpid()}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        engine.table.save(self.cache_dir / cli.CACHE_FILE)
        self.requests = cache_requests()
        random.Random(seed).shuffle(self.requests)

    def start(self):
        cache = ["--cache", str(self.cache_dir)]
        return [Op(" ".join(argv), lambda argv=argv: run_cli(argv + cache)) for argv in self.requests]

    def payload(self, out):
        return cli_payload(out)

    def cleanup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class VerifyAll(Workload):
    name = "verify-all"
    cli_queries = True

    def start(self):
        return [Op(" ".join(VERIFY_ARGV), lambda: run_cli(list(VERIFY_ARGV)))]

    def payload(self, out):
        payload, ok = cli_payload(out)
        summary = payload.get("output", {}).get("summary") if ok else None
        return payload, ok and summary == VERIFY_SUMMARY


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (VirFill, EOCrosscheck, CacheStream, VerifyAll)}
