"""Machine-readable performance records for figure runs.

Regenerating a paper figure writes its text table ``<name>.txt`` and a
``BENCH_<name>.json`` record under ``benchmarks/results/`` holding what the
simulation alone determines: the number of simulation events executed, the
figure's latency/throughput series and deterministic extras such as codec
bytes per decision.  A record therefore changes in git exactly when a PR
changes a series, an event count or a wire byte, and regenerating a figure
rewrites both files byte-identically.

A record holds no wall-clock number: host time is measured by ``bench/``
(``python3 bench/run.py --compare``), not by the figure runs.

A figure's event count is the sum over its sweep cells
(:func:`repro.harness.figures.run_figure`), each measured where the cell
ran, so serial and parallel runs record the same number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

#: Schema version of the emitted JSON records.
PERF_RECORD_VERSION = 2


@dataclass
class PerfRecord:
    """One figure run: everything here is what the simulation determined."""

    name: str
    events_executed: int
    series: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """The on-disk form of the record."""
        return {
            "version": PERF_RECORD_VERSION,
            "name": self.name,
            "events_executed": self.events_executed,
            "series": self.series,
            **({"extra": self.extra} if self.extra else {}),
        }


def write_record(record: PerfRecord, table: str, results_dir: Path) -> Path:
    """Persist ``table`` as ``<name>.txt`` and ``record`` as
    ``BENCH_<name>.json`` under ``results_dir``; returns the record's path."""
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{record.name}.txt").write_text(table + "\n")
    path = results_dir / f"BENCH_{record.name}.json"
    path.write_text(json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n")
    return path
