"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.sim.simulator import SimulationError, Simulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run_advances_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.0]
        assert sim.now == 10.0

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(25.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [25.0]

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(5.0, lambda: times.append(sim.now))

        sim.schedule(10.0, outer)
        sim.run()
        assert times == [10.0, 15.0]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(3.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []


class TestRunBounds:
    def test_run_until_time_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("early"))
        sim.schedule(50.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["early"]
        assert sim.now == 10.0

    def test_run_resumes_after_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(50.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        sim.run(until=100.0)
        assert fired == ["late"]

    def test_run_until_predicate(self):
        sim = Simulator()
        counter = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: counter.append(i))
        satisfied = sim.run_until(lambda: len(counter) >= 3)
        assert satisfied
        assert len(counter) == 3

    def test_run_until_predicate_deadline(self):
        sim = Simulator()
        satisfied = sim.run_until(lambda: False, deadline=100.0)
        assert not satisfied
        assert sim.now <= 100.0

    def test_run_until_predicate_already_true(self):
        sim = Simulator()
        assert sim.run_until(lambda: True)

    def test_run_until_refuses_a_past_deadline(self):
        """A deadline before ``now`` must not set the virtual clock back."""
        sim = Simulator()
        sim.schedule(60.0, lambda: None)
        sim.run(until=55.0)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, deadline=10.0)
        assert sim.now == 55.0
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [55.0]
        assert sim.now == 60.0

    def test_run_until_accepts_a_deadline_at_now(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=5.0)
        assert not sim.run_until(lambda: False, deadline=5.0)
        assert sim.now == 5.0

    def test_steps_executed_counts(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.steps_executed == 5


class TestDeterminism:
    def test_same_seed_same_rng_sequence(self):
        first = Simulator(seed=7)
        second = Simulator(seed=7)
        assert [first.rng.random() for _ in range(5)] == [second.rng.random() for _ in range(5)]

    def test_forked_streams_are_independent(self):
        sim = Simulator(seed=7)
        fork_a = sim.rng.fork("a")
        fork_b = sim.rng.fork("a")
        assert [fork_a.random() for _ in range(3)] == [fork_b.random() for _ in range(3)]
        assert sim.rng.fork("a").seed != sim.rng.fork("b").seed
