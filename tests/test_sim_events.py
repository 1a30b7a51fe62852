"""Unit tests for the event queue primitives."""

from __future__ import annotations

from repro.sim.events import EventQueue


class TestEventOrdering:
    def test_events_ordered_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(5.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(9.0, lambda: fired.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        queue = EventQueue()
        fired = []
        for name in ["first", "second", "third"]:
            queue.push(3.0, lambda n=name: fired.append(n))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["first", "second", "third"]

    def test_same_time_fifo_across_slot_and_heap(self):
        """Same-time entries fire in push order, wherever each one is kept."""
        queue = EventQueue()
        fired = []
        queue.push_transient(3.0, fired.append, args=("first",))
        queue.push(3.0, fired.append, args=("second",))
        queue.push_transient(3.0, fired.append, args=("third",))
        queue.push_transient(1.0, fired.append, args=("earlier",))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["earlier", "first", "second", "third"]

    def test_transient_push_keeps_the_first_entry_in_the_slot(self):
        queue = EventQueue()
        queue.push_transient(5.0, print)
        queue.push_transient(2.0, print)
        queue.push_transient(2.0, print)
        assert queue._slot[:2] == (2.0, 1)
        assert sorted(entry[:2] for entry in queue._heap) == [(2.0, 2), (5.0, 0)]

    def test_peek_time_returns_earliest(self):
        queue = EventQueue()
        queue.push(7.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_peek_time_empty_queue(self):
        assert EventQueue().peek_time() is None

    def test_peek_time_sees_the_slot(self):
        queue = EventQueue()
        queue.push(7.0, lambda: None)
        queue.push_transient(3.0, lambda: None)
        assert queue.peek_time() == 3.0


class TestCancellation:
    def test_cancelled_event_not_returned(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None

    def test_cancel_only_affects_target(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1.0, lambda: fired.append("keep"))
        drop = queue.push(2.0, lambda: fired.append("drop"))
        drop.cancel()
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["keep"]
        assert not keep.cancelled

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 5.0

    def test_clear_empties_queue(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.push_transient(0.5, lambda: None)
        queue.clear()
        assert queue.pop() is None
        assert queue.peek_time() is None
