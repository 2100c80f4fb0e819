"""Canonical digests of workload outputs, checked against a committed reference.

Every operation's output becomes a JSON payload (an ``NPointSeries`` or
report ``to_json``, or the parsed stdout of a CLI query with its exit code).
Timing fields are dropped, the payload is serialised with sorted keys and no
whitespace, and its sha256 is the operation's digest.  ``reference.json``
holds, per workload, the digest of every distinct operation and one digest
over all of them; ``make_reference.py`` generated it from the seed code.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TIMING_KEYS = frozenset({"elapsed_ms"})
_INT = re.compile(r"\d+")


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def canonical(obj) -> bytes:
    return json.dumps(strip_timing(obj), sort_keys=True, separators=(",", ":")).encode()


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def workload_digest(op_digests: Dict[str, str]) -> str:
    return digest(sorted(op_digests.items()))


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(expected: Dict[str, str], op_digests: Dict[str, str]) -> List[str]:
    """Operation keys whose digest is missing from the reference or differs from it."""
    return sorted(key for key, value in op_digests.items() if expected.get(key) != value)


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length among the coefficients ("c") of a payload."""
    best = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            for key, value in item.items():
                if key == "c" and isinstance(value, str):
                    best = max([best] + [int(text).bit_length() for text in _INT.findall(value)])
                else:
                    stack.append(value)
        elif isinstance(item, list):
            stack.extend(item)
    return best
