"""Per-experiment metrics collection.

Clients push one :class:`CommandSample` per completed command; the collector
aggregates them per origin replica and over time so the figure drivers can
report per-site latency (every topology hosts one replica per site, so a
site's latency is its origin's), total throughput and throughput timelines
exactly as the paper's plots do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.stats import LatencySummary, summarize_latencies, throughput_timeline
from repro.runtime.codec import value_type


@value_type
class CommandSample:
    """One completed client command."""

    origin: int
    proposer: int
    latency_ms: float
    completed_at: float
    key: str


class MetricsCollector:
    """Accumulates command samples during one experiment run.

    Args:
        warmup_ms: samples completing before this virtual time are discarded
            (mirrors the paper's JIT warm-up phase; the simulator has no JIT
            but discarding the ramp-up keeps steady-state numbers honest).
    """

    def __init__(self, warmup_ms: float = 0.0) -> None:
        self.warmup_ms = warmup_ms
        self.samples: List[CommandSample] = []
        self.discarded = 0

    def record_command(self, origin: int, proposer: int, latency_ms: float,
                       completed_at: float, key: str) -> None:
        """Record one completed command (dropped if within the warm-up window)."""
        if completed_at < self.warmup_ms:
            self.discarded += 1
            return
        self.samples.append(CommandSample(origin, proposer, latency_ms, completed_at, key))

    # ------------------------------------------------------------ aggregates

    @property
    def count(self) -> int:
        """Number of recorded (post-warm-up) samples."""
        return len(self.samples)

    def latencies(self, origin: Optional[int]) -> List[float]:
        """Latency samples, optionally filtered by origin replica."""
        return [sample.latency_ms for sample in self.samples
                if origin is None or sample.origin == origin]

    def summary(self, origin: Optional[int] = None) -> Optional[LatencySummary]:
        """Latency summary, or ``None`` when there are no matching samples."""
        values = self.latencies(origin)
        if not values:
            return None
        return summarize_latencies(values)

    def per_origin_summaries(self) -> Dict[int, LatencySummary]:
        """Latency summary per origin replica."""
        origins = sorted({sample.origin for sample in self.samples})
        result: Dict[int, LatencySummary] = {}
        for origin in origins:
            summary = self.summary(origin)
            if summary is not None:
                result[origin] = summary
        return result

    def throughput(self, duration_ms: float) -> float:
        """Commands per second completed over ``duration_ms`` of measured time."""
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        return self.count * 1000.0 / duration_ms

    def timeline(self, end_ms: float) -> List[tuple]:
        """Throughput time series of the recorded samples, per
        :data:`~repro.metrics.stats.TIMELINE_BUCKET_MS` from time 0."""
        return throughput_timeline([sample.completed_at for sample in self.samples], end_ms)
