"""Tests for the parallel sweep orchestrator (repro.harness.sweep).

The two load-bearing properties:

* **Determinism** — a sweep fanned out across worker processes produces
  byte-identical BENCH JSON and figure tables to a serial in-process run.
* **Failure visibility** — a cell that raises, whose replicas executed
  conflicting commands in different orders, or whose worker process dies
  outright, fails the sweep with a :class:`SweepError` naming the cell
  instead of hanging the suite.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import re

import pytest

from repro.harness.cluster import Cluster
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import run_figure
from repro.harness.sweep import (
    CellOutcome,
    SweepCell,
    SweepError,
    SweepResult,
    key_string,
    matches_any,
    resolve_workers,
    run_sweep,
    sweep_cell,
)
from repro.metrics.perf import PerfRecord, write_record
from repro.sim.random import DeterministicRandom, derive_seed, stable_label

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Figure 6 small enough for the unit suite: of its 6 cells, the 4 in
#: ``SMALL_CELLS`` run, ~0.2 s each.
SMALL_GRID = dict(conflict_rates=(0.0, 0.3), clients_per_site=2, duration_ms=1200.0,
                  warmup_ms=300.0)
SMALL_CELLS = ["fig6/caesar/*", "fig6/epaxos/*"]


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(protocol="caesar", clients_per_site=1, duration_ms=400.0,
                    warmup_ms=100.0, drain_ms=200.0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# -- collectors for the failure tests; top-level so worker processes can
# unpickle them by reference.

def raising_collector(result):
    raise ValueError("injected cell failure")


def dying_collector(result):
    os._exit(13)


class TestStableCellKeying:
    def test_stable_label_canonicalizes_primitives(self):
        assert stable_label("caesar") == "caesar"
        assert stable_label(10) == "10"
        assert stable_label(0.1) == "0.1"
        assert stable_label(True) == "True"

    def test_stable_label_rejects_unhashable_coordinates(self):
        with pytest.raises(TypeError):
            stable_label(["not", "primitive"])

    def test_derive_seed_depends_on_every_coordinate(self):
        base = derive_seed(11, ("fig9", "caesar", 0.1))
        assert derive_seed(11, ("fig9", "caesar", 0.3)) != base
        assert derive_seed(11, ("fig9", "epaxos", 0.1)) != base
        assert derive_seed(12, ("fig9", "caesar", 0.1)) != base

    def test_composite_keys_do_not_collide_by_concatenation(self):
        assert derive_seed(1, ("ab", "c")) != derive_seed(1, ("a", "bc"))

    def test_fork_cell_matches_derive_seed(self):
        rng = DeterministicRandom(7)
        assert rng.fork_cell(("x", 1)).seed == derive_seed(7, ("x", 1))

    def test_fork_single_label_unchanged_from_pr1(self):
        # fork() seeds existing client/network streams; the sweep refactor
        # must not shift them (that would silently change every experiment).
        assert DeterministicRandom(0).fork("client-0").seed == 882420389

    def test_sweep_cell_derives_config_seed_from_key(self):
        cell = sweep_cell(("fig", "caesar", 0.1), tiny_config(), base_seed=3)
        assert cell.config.seed == derive_seed(3, ("fig", "caesar", 0.1))

    def test_cells_share_a_seed_exactly_when_they_share_a_key(self):
        # A conflict-oblivious protocol reported under every conflict rate
        # shares its seed by reusing one key, as figure 9 does.
        first = sweep_cell(("fig9", "multipaxos"), tiny_config(conflict_rate=0.0), base_seed=3)
        again = sweep_cell(("fig9", "multipaxos"), tiny_config(conflict_rate=0.3), base_seed=3)
        other = sweep_cell(("fig9", "multipaxos", 0.3), tiny_config(conflict_rate=0.3),
                           base_seed=3)
        assert first.config.seed == again.config.seed
        assert other.config.seed != first.config.seed


class TestGridHelpers:
    def test_key_string_and_matching(self):
        key = ("fig9", "caesar", 0.1)
        assert key_string(key) == "fig9/caesar/0.1"
        assert matches_any(key, ["fig9/caesar/*"])
        assert matches_any(key, ["*/0.1"])
        assert not matches_any(key, ["fig9/epaxos/*"])

    def test_resolve_workers(self):
        assert resolve_workers(1, 8) == 1
        assert resolve_workers(4, 8) == 4
        assert resolve_workers("3", 8) == 3  # the CLI passes the flag's text
        assert resolve_workers(4, 2) == 2  # capped at the cell count
        assert resolve_workers("auto", 64) == min(os.cpu_count() or 1, 64)
        for bad in (0, -1, "0", "abc", None):
            with pytest.raises(ValueError, match="'auto' or a positive count"):
                resolve_workers(bad, 8)


class TestSweepDeterminism:
    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        serial = run_figure("6", workers=1, cell_filter=SMALL_CELLS, **SMALL_GRID)
        parallel = run_figure("6", workers=2, cell_filter=SMALL_CELLS, **SMALL_GRID)

        assert parallel.record.series == serial.record.series
        assert parallel.table == serial.table
        assert parallel.record.events_executed == serial.record.events_executed > 0

        # The figure table and the BENCH record serialize to the very same
        # bytes regardless of worker count.
        serial_record = serial.write(tmp_path / "serial")
        parallel_record = parallel.write(tmp_path / "parallel")
        assert serial_record.name == "BENCH_figure6_latency_vs_conflicts.json"
        assert serial_record.read_bytes() == parallel_record.read_bytes()
        table = "figure6_latency_vs_conflicts.txt"
        assert ((tmp_path / "serial" / table).read_bytes()
                == (tmp_path / "parallel" / table).read_bytes())
        assert "extra" not in parallel.record.to_json()

    def test_filtered_cells_report_none_payloads(self):
        result = run_figure("6", workers=1, cell_filter=["fig6/caesar/*"], **SMALL_GRID)
        series = result.record.series
        assert all(value is not None for value in series["caesar"].values())
        assert all(value is None for value in series["epaxos"].values())
        assert all(value is None for value in series["m2paxos"].values())
        assert result.sweeps[0].skipped == 4

    def test_cells_are_order_independent(self):
        cells = [sweep_cell(("t", protocol, rate), tiny_config(protocol=protocol,
                                                               conflict_rate=rate),
                            base_seed=5)
                 for protocol in ("caesar", "epaxos") for rate in (0.0, 0.5)]
        forward = run_sweep(cells, workers=1)
        backward = run_sweep(list(reversed(cells)), workers=1)
        for cell in cells:
            assert forward.payload(cell.key) == backward.payload(cell.key)


class TestSweepFailures:
    @pytest.mark.skipif(not HAVE_FORK, reason="needs the fork start method to "
                        "dispatch test-module runners to workers")
    @pytest.mark.deadline(60)
    def test_raising_cell_fails_sweep_with_cell_name(self):
        cells = [SweepCell(key=("t", "ok"), config=tiny_config()),
                 SweepCell(key=("t", "bad"), config=tiny_config(), collect=raising_collector)]
        with pytest.raises(SweepError, match="t/bad"):
            run_sweep(cells, workers=2)

    @pytest.mark.skipif(not HAVE_FORK, reason="needs the fork start method to "
                        "dispatch test-module runners to workers")
    @pytest.mark.deadline(60)
    def test_dead_worker_fails_sweep_instead_of_hanging(self):
        cells = [SweepCell(key=("t", "dies"), config=tiny_config(), collect=dying_collector),
                 SweepCell(key=("t", "ok"), config=tiny_config())]
        with pytest.raises(SweepError, match="worker process died"):
            run_sweep(cells, workers=2)

    def test_serial_failure_also_named(self):
        cells = [SweepCell(key=("t", "bad"), config=tiny_config(), collect=raising_collector)]
        with pytest.raises(SweepError, match="t/bad.*injected cell failure"):
            run_sweep(cells, workers=1)

    def test_an_order_violation_fails_the_sweep_with_the_cell_name(self, monkeypatch):
        # The cluster reports one pair of conflicting commands that two live
        # replicas executed in different orders.
        monkeypatch.setattr(Cluster, "check_consistency",
                            lambda cluster: [(0, 1, (0, 0), (1, 0))])
        cells = [SweepCell(key=("t", "disordered"), config=tiny_config())]
        # A plain assert, not pytest.raises: a mutation killer must fail with
        # an AssertionError (tests/mutants.py).
        try:
            run_sweep(cells, workers=1)
            message = "the sweep passed"
        except SweepError as error:
            message = str(error)
        assert "'t/disordered' failed: 1 order violations" in message


class TestPerfRecord:
    def test_sweep_record_sums_the_cells(self):
        outcomes = [CellOutcome(key=("a",), payload=None, events_executed=100),
                    CellOutcome(key=("b",), payload=None, events_executed=300)]
        assert SweepResult(outcomes=outcomes).events_executed == 400
        record = PerfRecord(name="sweep", events_executed=400)
        assert record.to_json() == {"version": 2, "name": "sweep",
                                    "events_executed": 400, "series": {}}

    def test_write_record_writes_the_table_and_the_json(self, tmp_path):
        series = {"caesar": {"0%": 1.5}}
        record = PerfRecord(name="x", events_executed=10, series=series,
                            extra={"cells": 2})
        path = write_record(record, "table", tmp_path)
        assert path == tmp_path / "BENCH_x.json"
        assert (tmp_path / "x.txt").read_text() == "table\n"
        assert json.loads(path.read_bytes()) == {
            "version": 2, "name": "x", "events_executed": 10, "series": series,
            "extra": {"cells": 2}}

    def test_a_record_holds_exactly_what_it_writes(self):
        record = PerfRecord(name="x", events_executed=10, series={"caesar": {"0%": 1.5}},
                            extra={"cells": 2})
        assert ({spec.name for spec in dataclasses.fields(PerfRecord)}
                == set(record.to_json()) - {"version"})
        assert "extra" not in PerfRecord(name="x", events_executed=10).to_json()


COMMITTED_RECORDS = sorted(
    (pathlib.Path(__file__).parent.parent / "benchmarks" / "results").glob("BENCH_*.json"))

#: Any key that could carry a run-to-run-varying value.
VOLATILE_KEY = re.compile(r"wall|per_second|timing|python|cpus|speedup")


def all_keys(node):
    """Every dict key anywhere inside a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from all_keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from all_keys(item)


@pytest.mark.parametrize("path", COMMITTED_RECORDS, ids=lambda path: path.name)
def test_committed_record_holds_nothing_volatile(path):
    # Guards the committed files themselves: a benchmark that smuggles a
    # wall-clock value in through ``extra`` would dirty the tree on every run.
    record = json.loads(path.read_text())
    assert set(record) <= {"version", "name", "events_executed", "series", "extra"}
    assert [key for key in all_keys(record) if VOLATILE_KEY.search(key)] == []
