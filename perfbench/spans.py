"""In-memory span recorder and self-time arithmetic.

A span is one call into a layer: a name, a start and an end time read from
``time.perf_counter``, and the index of the span that was open when it began
(-1 at the top).  The recorder appends spans to flat arrays while a workload
runs, writes them to one binary file when it ends, and the reduction below
turns them into per-name call counts, total times and self times.

A span's self time is its duration minus the part of that interval its child
spans cover.  Children of one span never overlap when they come from a single
thread, but the reduction merges their intervals anyway, so a synthetic or
clipped tree is handled the same way.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple


class Recorder:
    """Collects spans for one process; not thread-safe (the benchmark has one thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.ends)
        self.parents.append(stack[-1] if stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def current_name(self) -> Optional[str]:
        """Name of the innermost open span, or None outside every span."""
        if not self._stack:
            return None
        return self.names[self.name_ids[self._stack[-1]]]

    def __len__(self) -> int:
        return len(self.ends)

    def write(self, path: Path) -> None:
        """One JSON header line (names, span count), then the four arrays."""
        header = {"names": self.names, "spans": len(self)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


Spans = Tuple[List[str], array, array, array, array]


def read(path: Path) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return (header["names"], *arrays)


def self_times(names, name_ids, parents, starts, ends) -> Dict[str, Dict[str, float]]:
    """Per span name: number of spans, summed duration and summed self time."""
    children: Dict[int, List[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out: Dict[str, Dict[str, float]] = {}
    for idx in range(len(ends)):
        lo, hi = starts[idx], ends[idx]
        covered = _covered(lo, hi, [(starts[c], ends[c]) for c in children.get(idx, ())])
        row = out.setdefault(names[name_ids[idx]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += hi - lo
        row["self_s"] += (hi - lo) - covered
    return out


def _covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
