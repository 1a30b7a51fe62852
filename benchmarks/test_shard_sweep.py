"""Sharded-keyspace benchmark: shard scaling under zipfian skew.

Runs the ``shard_scaling`` study grid (protocol x skew x shard count, each
cell a full sharded run over generator-built WAN groups) and records its
series and event count as ``BENCH_shard_scaling.json``, committed like every
other figure sweep's record.

The correctness contract is asserted unconditionally: every submitted
command decides with zero conflict-order violations, and running the same
study serially must reproduce the swept tables bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.harness.figures import shard_scaling

from bench_utils import run_once

GRID = dict(protocols=("caesar",), shard_counts=(1, 2, 4), skews=(0.0, 0.99),
            sites=10, replicas_per_site=2, clients=8, commands_per_client=4,
            key_space=200, hot_keys=8, seed=23)


def _run_grid():
    return shard_scaling(serial=True, **GRID)


@pytest.mark.benchmark(group="shard")
def test_shard_scaling_grid_decides_and_records(benchmark, save_result):
    result = run_once(benchmark, _run_grid, perf_name="shard_scaling")
    save_result("shard_scaling", result.table)

    assert result.extra["total_violations"] == 0
    assert result.extra["total_undecided"] == 0
    # Aggregate throughput must be reported for every grid point.
    for points in result.series.values():
        assert all(value is not None and value > 0 for value in points.values())
    # Per-shard conflict rates are reported at the widest shard count.
    assert result.extra["per_shard_conflicts"]

    # Determinism: the identical grid reproduces the identical tables.
    again = shard_scaling(serial=True, **GRID)
    assert again.table == result.table
    assert again.series == result.series
