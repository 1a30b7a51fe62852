"""Sharded-keyspace benchmark: shard scaling under zipfian skew.

Runs the ``shard_scaling`` study grid (protocol x skew x shard count, each
cell a full sharded run over generator-built WAN groups) and records its
series and event count as ``BENCH_shard_scaling.json``, committed like every
other figure sweep's record.

The correctness contract is asserted unconditionally: every submitted
command decides with zero conflict-order violations, and running the same
study again must reproduce the swept tables bit-for-bit.
"""

from __future__ import annotations

from repro.harness.figures import shard_scaling


def test_shard_scaling_grid_decides_and_records(results_dir):
    result = shard_scaling()
    result.write(results_dir)

    assert result.extra["total_violations"] == 0
    assert result.extra["total_undecided"] == 0
    # Aggregate throughput must be reported for every grid point.
    for points in result.series.values():
        assert all(value is not None and value > 0 for value in points.values())
    # Per-shard conflict rates are reported at the widest shard count.
    assert result.extra["per_shard_conflicts"]

    # Determinism: the identical grid reproduces the identical tables.
    again = shard_scaling()
    assert again.table == result.table
    assert again.series == result.series
