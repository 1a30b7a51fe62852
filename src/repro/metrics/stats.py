"""Summary statistics helpers (percentiles, latency summaries, time series)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: A throughput timeline's bucket: one second, as Figure 12 plots it.
TIMELINE_BUCKET_MS = 1000.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` at ``fraction`` in [0, 1].

    Raises ``ValueError`` on an empty input so silent zeros never leak into
    experiment reports.
    """
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    interpolated = ordered[lower] * (1 - weight) + ordered[upper] * weight
    # Clamp away floating-point drift so the result never leaves the bracket.
    return min(max(interpolated, ordered[lower]), ordered[upper])


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate view of a set of latency samples (milliseconds)."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    #: Tail percentile for the overload/SLO study.  With fewer than 1000
    #: samples this interpolates between the two highest order statistics
    #: (and degenerates to the maximum for tiny inputs) instead of failing.
    p999: float = 0.0


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """Build a :class:`LatencySummary` from raw samples."""
    if not values:
        raise ValueError("cannot summarize an empty latency list")
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        median=percentile(values, 0.5),
        p95=percentile(values, 0.95),
        p99=percentile(values, 0.99),
        minimum=min(values),
        maximum=max(values),
        p999=percentile(values, 0.999),
    )


def throughput_timeline(completion_times_ms: Sequence[float],
                        end_ms: float) -> List[Tuple[float, float]]:
    """Bucket completion timestamps into a throughput time series.

    The window ``[0, end_ms]`` is split into ``ceil`` buckets of
    :data:`TIMELINE_BUCKET_MS`; the final bucket may cover less than a full
    bucket and its rate is scaled by the width it actually spans, so a
    timeline whose window is not a multiple of the bucket size reports honest
    commands-per-second at the edge instead of diluting (or inflating) the
    last bucket's count by the nominal width.  Samples landing exactly on
    ``end_ms`` count toward the final bucket.

    Args:
        completion_times_ms: virtual times at which commands completed.
        end_ms: timeline end.

    Returns:
        List of ``(bucket_start_ms, commands_per_second)`` pairs.
    """
    bucket_ms = TIMELINE_BUCKET_MS
    n_buckets = max(1, math.ceil(end_ms / bucket_ms))
    buckets: Dict[int, int] = {}
    for completion in completion_times_ms:
        if completion > end_ms:
            continue
        index = min(int(completion // bucket_ms), n_buckets - 1)
        buckets[index] = buckets.get(index, 0) + 1
    series = []
    for index in range(n_buckets):
        bucket_start = index * bucket_ms
        width = min(bucket_ms, end_ms - bucket_start)
        if index == n_buckets - 1 and width < bucket_ms:
            if width <= 0:
                # Degenerate empty window (end == 0): keep the nominal
                # width rather than dividing by zero.
                width = bucket_ms
        else:
            width = bucket_ms
        count = buckets.get(index, 0)
        series.append((bucket_start, count * 1000.0 / width))
    return series
