"""Order statistics shared by the runner and ``compare.py`` (no ``repro`` imports)."""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an ascending sequence."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[min(len(ordered), int(rank)) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``; all three are the one value of a short series."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def interval_costs(
    samples: Sequence[Tuple[float, float]], done: Sequence[float], weight: int
) -> List[float]:
    """Cost per op in each sampling interval.

    ``samples`` is ``(time, cumulative cost)`` taken about once a
    second; ``done`` the ascending completion times, each ``weight``
    ops.  Intervals under 0.9 s (the tail of the phase) are dropped.
    """
    costs = []
    for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
        ops = (bisect.bisect_left(done, t1) - bisect.bisect_left(done, t0)) * weight
        if t1 - t0 >= 0.9 and ops:
            costs.append((c1 - c0) / ops)
    return costs


def window_rates(
    done: Sequence[float], started: float, weight: int
) -> List[float]:
    """Ops completed in each *complete* one-second window after ``started``.

    ``done`` is ascending completion times, each worth ``weight`` ops.
    The trailing partial window is dropped: a median over windows must
    not be dragged down by a window that simply ended early.
    """
    if not done:
        return []
    complete = int(done[-1] - started)
    counts = [0] * complete
    for stamp in done:
        index = int(stamp - started)
        if index < complete:
            counts[index] += weight
    return [float(count) for count in counts]


def window_medians(
    sent: Sequence[float], done: Sequence[float], started: float
) -> List[float]:
    """Median latency of the samples completed in each complete 1-s window."""
    if not done:
        return []
    complete = int(done[-1] - started)
    buckets: List[List[float]] = [[] for _ in range(complete)]
    for begin, end in zip(sent, done):
        index = int(end - started)
        if index < complete:
            buckets[index].append(end - begin)
    return [statistics.median(bucket) for bucket in buckets if bucket]


def quartile_spread(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, (Q3 - Q1) / median)`` the way the driver computes it."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return mid, (q3 - q1) / abs(mid) if mid else 0.0


def coefficient_of_variation(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean else 0.0


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median and supported tails of per-op latencies, in milliseconds."""
    ordered = sorted(latencies_s)
    out = {
        "samples": float(len(ordered)),
        "p50_s": percentile(ordered, 50),
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p99_ms": 0.0,
        "p999_ms": 0.0,
    }
    # A tail is reported only where ten samples lie beyond it.
    if len(ordered) >= 1000:
        out["p99_ms"] = percentile(ordered, 99) * 1e3
    if len(ordered) >= 10000:
        out["p999_ms"] = percentile(ordered, 99.9) * 1e3
    return out
