"""Machine-readable performance records for benchmark runs.

Every benchmark that regenerates a paper figure also emits a
``BENCH_<name>.json`` file under ``benchmarks/results/`` holding what the
simulation alone determines: the number of simulation events executed, the
figure's latency/throughput series and deterministic extras such as codec
bytes per decision.  A record therefore changes in git exactly when a PR
changes a series, an event count or a wire byte, and rerunning a benchmark
rewrites its record byte-identically.

Wall-clock numbers (wall seconds, events/second, interpreter, worker and CPU
counts) live on the in-memory :class:`PerfRecord` for printing and
assertions; :meth:`PerfRecord.timing` hands them to the results store
(``repro sweep --store``), never to a tracked file.  Timing regressions are
``bench/run.py --compare``'s job.

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
PERF_RECORD_VERSION = 2


@dataclass
class PerfRecord:
    """One measured benchmark run.

    ``series`` and ``extra`` hold what the simulation determines and are
    serialized; ``wall_seconds`` and ``timing_detail`` (per-part walls,
    worker/CPU counts, speedups) vary run to run and are not.
    """

    name: str
    wall_seconds: float
    events_executed: int
    series: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    timing_detail: Dict[str, object] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Simulator events per wall-clock second (0.0 for a zero-length run)."""
        return self.events_executed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_json(self) -> Dict[str, object]:
        """The on-disk form: only what the (deterministic) simulation produced."""
        return {
            "version": PERF_RECORD_VERSION,
            "name": self.name,
            "events_executed": self.events_executed,
            "series": self.series,
            **({"extra": self.extra} if self.extra else {}),
        }

    def timing(self) -> Dict[str, object]:
        """The wall-clock side of the run, for results-store rows."""
        return {
            "wall_seconds": round(self.wall_seconds, 3),
            "events_per_second": round(self.events_per_second, 1),
            "python": platform.python_version(),
            **self.timing_detail,
        }


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
    ``timing_detail`` so parallel efficiency stays inspectable.
    """
    cell_wall = sum(partial.wall_seconds for partial in partials)
    return PerfRecord(
        name=name,
        wall_seconds=cell_wall if wall_seconds is None else wall_seconds,
        events_executed=sum(partial.events_executed for partial in partials),
        timing_detail={"parts": len(partials),
                       "cell_wall_seconds": round(cell_wall, 3)},
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
        self.record = PerfRecord(
            name=self.name,
            wall_seconds=time.perf_counter() - self._started_wall,
            events_executed=total_events_executed() - self._started_events,
        )


def measure(name: str, fn: Callable, *args, **kwargs):
    """Run ``fn`` under a :class:`PerfTracker`; returns ``(result, record)``."""
    with PerfTracker(name) as tracker:
        result = fn(*args, **kwargs)
    return result, tracker.record


def write_record(record: PerfRecord, results_dir: Path) -> Path:
    """Persist ``record`` as ``BENCH_<name>.json`` under ``results_dir``."""
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{record.name}.json"
    path.write_text(json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n")
    return path
