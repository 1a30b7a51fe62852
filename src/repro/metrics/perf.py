"""Machine-readable performance records for benchmark runs.

Every benchmark that regenerates a paper figure also emits a
``BENCH_<name>.json`` file under ``benchmarks/results/`` containing the
wall-clock time of the run, the number of simulation events executed and the
resulting events/second, plus the figure's latency/throughput series.  The
records are what makes the simulator's performance trajectory visible across
PRs: regressions show up as a drop in ``events_per_second`` between two
checked-in records, without anyone having to eyeball pytest-benchmark output.

The event counts come from :func:`repro.sim.simulator.total_events_executed`,
a process-wide monotonic counter, so the tracker works even though the figure
drivers build their simulators internally.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.sim.simulator import total_events_executed

#: Schema version of the emitted JSON records.
PERF_RECORD_VERSION = 1

#: Record fields that vary run-to-run even when the simulation is identical.
#: ``PerfRecord.to_json(stable=True)`` omits them (plus the ``timing`` extra)
#: so that two runs of the same deterministic sweep serialize byte-identically
#: regardless of machine speed or worker count.
VOLATILE_FIELDS = ("wall_seconds", "events_per_second")

#: Key under ``PerfRecord.extra`` where merged records keep their volatile
#: timing detail (per-part walls, speedups); stripped in stable mode.
TIMING_EXTRA_KEY = "timing"


@dataclass
class PerfRecord:
    """One measured benchmark run."""

    name: str
    wall_seconds: float
    events_executed: int
    events_per_second: float
    series: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self, stable: bool = False) -> Dict[str, object]:
        """JSON-serializable form of the record.

        Args:
            stable: omit wall-clock-derived fields so the serialized record
                depends only on the (deterministic) simulation outputs.
        """
        record = {
            "version": PERF_RECORD_VERSION,
            "name": self.name,
            "wall_seconds": round(self.wall_seconds, 3),
            "events_executed": self.events_executed,
            "events_per_second": round(self.events_per_second, 1),
            "python": platform.python_version(),
            "series": self.series,
            **({"extra": self.extra} if self.extra else {}),
        }
        if stable:
            for volatile in VOLATILE_FIELDS:
                record.pop(volatile, None)
            extra = record.get("extra")
            if isinstance(extra, dict) and TIMING_EXTRA_KEY in extra:
                extra = {key: value for key, value in extra.items()
                         if key != TIMING_EXTRA_KEY}
                if extra:
                    record["extra"] = extra
                else:
                    record.pop("extra")
        return record


def merge_partial_records(name: str, partials: Sequence[object],
                          wall_seconds: Optional[float] = None) -> PerfRecord:
    """Combine per-cell partial records into one aggregate record.

    A partial is anything with ``events_executed`` and ``wall_seconds``
    (a :class:`PerfRecord`, or a sweep's ``CellOutcome``).

    A parallel sweep measures each cell inside its worker process and hands
    the partial records back to the coordinator.  The merged record sums the
    cells' event counts, takes ``wall_seconds`` as the *observed* wall time of
    the whole sweep (summing the partials instead when it is not given, i.e.
    the serial-equivalent cost), and keeps the per-part walls under
    ``extra["timing"]`` so parallel efficiency stays inspectable.
    """
    events = sum(partial.events_executed for partial in partials)
    cell_wall = sum(partial.wall_seconds for partial in partials)
    wall = cell_wall if wall_seconds is None else wall_seconds
    return PerfRecord(
        name=name,
        wall_seconds=wall,
        events_executed=events,
        events_per_second=(events / wall) if wall > 0 else 0.0,
        extra={TIMING_EXTRA_KEY: {
            "parts": len(partials),
            "cell_wall_seconds": round(cell_wall, 3),
        }},
    )


class PerfTracker:
    """Measures wall time and simulator events across a benchmark body."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._started_wall = 0.0
        self._started_events = 0
        self.record: Optional[PerfRecord] = None

    def __enter__(self) -> "PerfTracker":
        self._started_events = total_events_executed()
        self._started_wall = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._started_wall
        events = total_events_executed() - self._started_events
        self.record = PerfRecord(
            name=self.name,
            wall_seconds=wall,
            events_executed=events,
            events_per_second=(events / wall) if wall > 0 else 0.0,
        )


def measure(name: str, fn: Callable, *args, **kwargs):
    """Run ``fn`` under a :class:`PerfTracker`; returns ``(result, record)``."""
    with PerfTracker(name) as tracker:
        result = fn(*args, **kwargs)
    return result, tracker.record


def write_record(record: PerfRecord, results_dir: Path, stable: bool = False) -> Path:
    """Persist ``record`` as ``BENCH_<name>.json`` under ``results_dir``."""
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{record.name}.json"
    path.write_text(json.dumps(record.to_json(stable=stable), indent=2, sort_keys=True) + "\n")
    return path
