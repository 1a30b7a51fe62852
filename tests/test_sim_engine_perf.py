"""Tests for the high-throughput event engine.

Covers the guarantees the engine rewrite must preserve:

* determinism — the same seed produces the identical event interleaving and
  identical :class:`NetworkStats`, in any process;
* lazy-cancellation semantics;
* FIFO tie-breaking among simultaneous events;
* the cadenced ``run_until`` fast path;
* a wall-clock floor on raw simulator throughput, so hot-path regressions
  fail loudly instead of silently making every benchmark slower.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator, total_events_executed


class TestDeterminism:
    def _trace(self, seed: int):
        """Run a jittery scheduling workload and return its event trace."""
        sim = Simulator(seed=seed)
        trace = []

        def emit(tag):
            trace.append((tag, round(sim.now, 6)))
            if len(trace) < 200:
                sim.schedule(sim.rng.uniform(0.0, 5.0), emit, args=(tag + 1,))

        for i in range(8):
            sim.schedule(sim.rng.uniform(0.0, 5.0), emit, args=(i * 1000,))
        sim.run()
        return trace

    def test_same_seed_identical_interleaving(self):
        assert self._trace(seed=11) == self._trace(seed=11)

    def test_different_seed_different_interleaving(self):
        assert self._trace(seed=11) != self._trace(seed=12)

    def test_same_seed_identical_network_stats_and_logs(self):
        """End-to-end determinism: two identical experiments match exactly."""

        def run():
            result = run_experiment(ExperimentConfig(
                protocol="caesar", conflict_rate=0.2, clients_per_site=4,
                duration_ms=1500.0, warmup_ms=300.0, seed=21))
            stats = result.cluster.network.stats
            logs = [[c.command_id for c in r.execution_log]
                    for r in result.cluster.replicas]
            return stats, logs, result.cluster.sim.steps_executed

        first_stats, first_logs, first_steps = run()
        second_stats, second_logs, second_steps = run()
        assert first_stats == second_stats
        assert first_logs == second_logs
        assert first_steps == second_steps

    def test_forked_streams_stable_across_processes(self):
        """Derived seeds must not depend on the per-process hash salt."""
        sim = Simulator(seed=7)
        # Pinned value: if this changes, every checked-in figure table under
        # benchmarks/results/ silently stops being reproducible.
        assert sim.rng.fork("network").seed == 1911001485


class TestCancellation:
    def test_cancel_is_lazy_but_exact(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1.0, lambda: fired.append("keep"))
        drop = queue.push(1.0, lambda: fired.append("drop"))
        drop.cancel()
        assert len(queue._heap) == 2  # lazy: the cancelled entry stays queued
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["keep"]
        assert not keep.cancelled and drop.cancelled

    def test_cancelled_timer_never_fires_after_requeue(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(5.0, lambda: fired.append("a"))
        sim.schedule(1.0, handle.cancel)
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["b"]

    def test_cancel_mid_run_of_simultaneous_event(self):
        """An event may cancel a later event scheduled for the same instant."""
        sim = Simulator()
        fired = []
        victims = []
        sim.schedule(2.0, lambda: victims[0].cancel())
        victims.append(sim.schedule(2.0, lambda: fired.append("victim")))
        sim.run()
        assert fired == []
        assert sim.steps_executed == 1


class TestTieBreaking:
    def test_fifo_under_interleaved_pushes(self):
        """Cancellable and transient pushes at one instant fire in push order."""
        queue = EventQueue()
        fired = []
        queue.push(3.0, fired.append, args=("first",))
        queue.push_transient(3.0, fired.append, args=("second",))
        queue.push(3.0, fired.append, args=("third",))
        queue.push_transient(3.0, fired.append, args=("fourth",))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["first", "second", "third", "fourth"]

    def test_fifo_preserved_for_nested_same_time_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(0.0, lambda: fired.append("nested"))

        sim.schedule(1.0, outer)
        sim.schedule(1.0, lambda: fired.append("sibling"))
        sim.run()
        # The nested zero-delay event was pushed after the sibling, so FIFO
        # ordering at t=1.0 delivers the sibling first.
        assert fired == ["outer", "sibling", "nested"]


class TestRunUntilCadence:
    def _counting_sim(self):
        sim = Simulator()
        counter = []
        for i in range(50):
            sim.schedule(float(i + 1), lambda i=i: counter.append(i))
        return sim, counter

    def test_cadence_one_stops_exactly(self):
        sim, counter = self._counting_sim()
        assert sim.run_until(lambda: len(counter) >= 10)
        assert len(counter) == 10

    def test_larger_cadence_same_order_bounded_overshoot(self):
        sim, counter = self._counting_sim()
        assert sim.run_until(lambda: len(counter) >= 10, check_every=8)
        assert 10 <= len(counter) <= 17  # at most check_every - 1 extra events
        assert counter == list(range(len(counter)))  # ordering unchanged

    def test_cadence_respects_deadline(self):
        sim, counter = self._counting_sim()
        assert not sim.run_until(lambda: False, deadline=25.0, check_every=16)
        assert sim.now == 25.0

    def test_invalid_cadence_rejected(self):
        sim, _ = self._counting_sim()
        with pytest.raises(ValueError):
            sim.run_until(lambda: True, check_every=0)


class TestEngineThroughput:
    """Wall-clock floors so hot-path regressions fail loudly.

    The floors are ~4x below the rates measured on a developer container
    (~530k events/s raw, ~50k events/s through the full CAESAR stack), which
    leaves room for slow CI hardware while still catching order-of-magnitude
    regressions like per-event closure allocation or O(n) queue operations.
    """

    def test_raw_event_loop_floor(self):
        sim = Simulator(seed=1)
        total = 200_000
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < total:
                sim.schedule(0.01, tick)

        for _ in range(4):
            sim.schedule(0.01, tick)
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        rate = state["count"] / wall
        assert rate > 120_000, f"raw event loop regressed to {rate:,.0f} events/s"

    def test_protocol_stack_events_per_second_floor(self):
        before = total_events_executed()
        start = time.perf_counter()
        run_experiment(ExperimentConfig(
            protocol="caesar", conflict_rate=0.1, clients_per_site=10,
            duration_ms=2000.0, warmup_ms=500.0, seed=3))
        wall = time.perf_counter() - start
        events = total_events_executed() - before
        rate = events / wall
        assert rate > 12_000, f"protocol hot path regressed to {rate:,.0f} events/s"
