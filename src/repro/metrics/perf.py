"""Machine-readable performance records for figure runs.

Regenerating a paper figure writes its text table ``<name>.txt`` and a
``BENCH_<name>.json`` record under ``benchmarks/results/`` holding what the
simulation alone determines: the number of simulation events executed, the
figure's latency/throughput series and deterministic extras such as codec
bytes per decision.  A record therefore changes in git exactly when a PR
changes a series, an event count or a wire byte, and regenerating a figure
rewrites both files byte-identically.

Wall-clock numbers (wall seconds, events/second, interpreter, worker, CPU
and cell counts) live on the in-memory :class:`PerfRecord` for printing and
assertions; :meth:`PerfRecord.timing` hands them to the results store
(``repro figure --store``), never to a tracked file.  Timing regressions are
``bench/run.py --compare``'s job.

A figure's event count is the sum over its sweep cells
(:meth:`repro.harness.sweep.SweepResult.perf_record`), each measured where
the cell ran, so serial and parallel runs record the same number.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

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


def write_record(record: PerfRecord, table: str, results_dir: Path) -> Path:
    """Persist ``table`` as ``<name>.txt`` and ``record`` as
    ``BENCH_<name>.json`` under ``results_dir``; returns the record's path."""
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{record.name}.txt").write_text(table + "\n")
    path = results_dir / f"BENCH_{record.name}.json"
    path.write_text(json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n")
    return path
