"""Arithmetic of the benchmark: medians, tail percentiles, failure ratios and
span self times.  Pure functions, no I/O, so they are unit-tested directly
(``python3 -m pytest bench/test_harness.py``)."""
from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# candidate percentiles, highest first; the reported tail is the highest one
# that still leaves at least TAIL_BEYOND samples above it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float]]:
    """(p, value) for the highest candidate percentile p with at least
    ``beyond`` samples strictly above its nearest-rank position, or None
    when there are too few samples for any candidate."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_CANDIDATES:
        # nearest-rank, 1-based; rounding keeps 99.9% of 10000 at 9990
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - rank >= beyond:
            return p, float(ordered[rank - 1])
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, tail percentile and sample count of one metric."""
    out: Dict[str, object] = {"n": len(samples), "median": median(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out["tail_p"], out["tail_value"] = tail
    return out


def fail_ratio(statuses: Iterable[bool]) -> float:
    """Failed ops over attempted ops; ``statuses`` holds one ok-flag per op."""
    flags = list(statuses)
    if not flags:
        raise ValueError("no ops attempted")
    return sum(1 for ok in flags if not ok) / len(flags)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of it covered by
    its direct children.  Spans are dicts with ``id``, ``parent`` (id or
    None), ``start`` and ``end``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def outermost(spans: Sequence[Dict], name: str) -> List[Dict]:
    """Spans called ``name`` with no ancestor of the same name, so that the
    inclusive time of a recursive or re-entrant call is counted once."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out
