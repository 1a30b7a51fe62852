"""Sweep orchestrator benchmark: serial vs. 4-worker figure-9 grid.

Runs the Figure 9 throughput grid twice through
:mod:`repro.harness.sweep` — once serially, once across 4 worker processes —
and records the parallel run's series and event count in
``BENCH_sweep_orchestrator.json``.  The determinism contract is asserted
unconditionally: the parallel run must reproduce the serial run's series,
tables and event counts bit-for-bit.

The wall-time speedup is hardware-dependent: 4 workers only beat serial
when there are cores for them (GitHub's standard runners have 4 vCPUs), so
the speedup assertion is gated on the visible CPU count and computed from
the two in-memory sweep results; no wall time is written to the record.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.figures import figure9_throughput

from bench_utils import run_once

GRID = dict(conflict_rates=(0.0, 0.10, 0.30),
            protocols=("caesar", "epaxos", "m2paxos", "multipaxos", "mencius"),
            clients_per_site=30, duration_ms=2500.0, warmup_ms=1000.0)

WORKERS = 4


def _run_serial_then_parallel():
    serial = figure9_throughput(serial=True, **GRID)
    parallel = figure9_throughput(workers=WORKERS, **GRID)
    return serial, parallel


@pytest.mark.benchmark(group="sweep")
def test_sweep_parallel_matches_serial_and_records_speedup(benchmark, save_result):
    serial, parallel = run_once(
        benchmark, _run_serial_then_parallel, perf_name="sweep_orchestrator",
        perf_series=lambda r: r[1].series)
    save_result("sweep_orchestrator", parallel.table)

    # The determinism contract: fanning the grid out across processes must
    # not change a single byte of the figure output.
    assert parallel.series == serial.series
    assert parallel.table == serial.table
    assert (parallel.extra["sweep"].events_executed
            == serial.extra["sweep"].events_executed)
    assert parallel.extra["sweep"].workers == WORKERS

    # The wall-time payoff needs actual cores (>= 2x expected on an unloaded
    # 4-core machine); the assertion keeps a margin below that so a noisy
    # neighbour on a shared 4-vCPU runner doesn't flake the build while
    # still failing loudly if parallelism stops paying at all.
    if (os.cpu_count() or 1) >= 4:
        serial_wall = serial.extra["sweep"].wall_seconds
        parallel_wall = parallel.extra["sweep"].wall_seconds
        assert serial_wall / parallel_wall >= 1.5, (serial_wall, parallel_wall)
