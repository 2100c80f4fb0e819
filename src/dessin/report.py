"""Structured pass/fail results for identity and equivalence suites."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


@dataclass
class VerificationReport:
    suite: str
    parameters: dict
    status: str  # "pass" | "fail"
    checked_count: int
    first_discrepancy: Optional[dict]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, include_elapsed: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "parameters": dict(self.parameters),
            "status": self.status,
            "checked_count": self.checked_count,
            "first_discrepancy": self.first_discrepancy,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def run_comparisons(suite: str, parameters: dict, comparisons: Iterable[Tuple[object, object, object]]) -> VerificationReport:
    """Consume (location, expected, actual) triples; report the first mismatch.

    The generator is drained fully even after a mismatch is found so that
    checked_count is deterministic, unless the comparison stream is lazy and
    a failure was already recorded; then remaining items are still counted.
    """
    t0 = time.perf_counter()
    checked = 0
    first = None
    for location, expected, actual in comparisons:
        checked += 1
        if first is None and expected != actual:
            first = {
                "location": _loc(location),
                "expected": str(expected),
                "actual": str(actual),
            }
    if not checked:
        raise ValueError(f"{suite} has nothing to check at {parameters}")
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        suite=suite,
        parameters=parameters,
        status="pass" if first is None else "fail",
        checked_count=checked,
        first_discrepancy=first,
        elapsed_ms=elapsed,
    )


def _loc(location) -> object:
    if isinstance(location, tuple):
        return list(location)
    return location
