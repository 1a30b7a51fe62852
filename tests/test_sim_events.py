"""Unit tests for the event queue primitives, fired by the simulator's run loop."""

from __future__ import annotations

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from tests.conftest import drain


class TestEventOrdering:
    def test_events_ordered_by_time(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(5.0, fired.append, args=("b",))
        sim.schedule(1.0, fired.append, args=("a",))
        sim.schedule(9.0, fired.append, args=("c",))
        drain(sim)
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator(seed=0)
        fired = []
        for name in ["first", "second", "third"]:
            sim.schedule(3.0, fired.append, args=(name,))
        drain(sim)
        assert fired == ["first", "second", "third"]

    def test_same_time_fifo_across_slot_and_heap(self):
        """Same-time entries fire in push order, wherever each one is kept."""
        sim = Simulator(seed=0)
        queue = sim._queue
        fired = []
        queue.push_transient(3.0, fired.append, args=("first",))
        queue.push(3.0, fired.append, args=("second",))
        queue.push_transient(3.0, fired.append, args=("third",))
        queue.push_transient(1.0, fired.append, args=("earlier",))
        drain(sim)
        assert fired == ["earlier", "first", "second", "third"]

    def test_transient_push_keeps_the_first_entry_in_the_slot(self):
        queue = EventQueue()
        queue.push_transient(5.0, print, ())
        queue.push_transient(2.0, print, ())
        queue.push_transient(2.0, print, ())
        assert queue._slot[:2] == (2.0, 1)
        assert sorted(entry[:2] for entry in queue._heap) == [(2.0, 2), (5.0, 0)]

    def test_peek_time_returns_earliest(self):
        queue = EventQueue()
        queue.push(7.0, lambda: None, ())
        queue.push(2.0, lambda: None, ())
        assert queue.peek_time() == 2.0

    def test_peek_time_empty_queue(self):
        assert EventQueue().peek_time() is None

    def test_peek_time_sees_the_slot(self):
        queue = EventQueue()
        queue.push(7.0, lambda: None, ())
        queue.push_transient(3.0, lambda: None, ())
        assert queue.peek_time() == 3.0


class TestCancellation:
    def test_cancelled_event_not_returned(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(1.0, fired.append, args=("cancelled",)).cancel()
        drain(sim)
        assert fired == []
        assert sim.steps_executed == 0

    def test_cancel_only_affects_target(self):
        sim = Simulator(seed=0)
        fired = []
        keep = sim.schedule(1.0, fired.append, args=("keep",))
        drop = sim.schedule(2.0, fired.append, args=("drop",))
        drop.cancel()
        drain(sim)
        assert fired == ["keep"]
        assert not keep.cancelled

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, ())
        queue.push(5.0, lambda: None, ())
        first.cancel()
        assert queue.peek_time() == 5.0
