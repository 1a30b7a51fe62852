"""The event engine against the engine it replaced: same events, same order.

``tests/reference_simulator.py`` keeps the previous ``EventQueue`` and
``Simulator``, whose every entry sits on the heap under a
``(time, priority, seq)`` key.  The current engine keeps one never-cancelled
entry in a slot in front of the heap, keys by ``(time, seq)``, counts steps
once per run call, and receives network deliveries pushed straight onto its
heap by ``Network.send``.  Hypothesis drives both with the same random
schedules and asserts, after every phase, the same firing order, the same
``now`` at each firing, the same ``now`` and ``steps_executed`` between
phases, and the same pending times.

A schedule is a tree: each scheduled event carries the operations it performs
when it fires (nested pushes, zero-delay ones included, and cancels), so the
CPU-dispatch pattern - a delivery that pushes the next event - arises on its
own.  The phases between them are ``run(until)`` (with ``until`` exactly at a
pending time or one float either side of it), ``run()`` and ``run_until`` with
a cadence and a deadline.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.sim.events import EventQueue
from repro.sim.network import MIN_DELAY_MS, Network
from repro.sim.simulator import Simulator
from repro.sim.topology import uniform_topology
from tests import reference_simulator

#: Delays repeat on purpose: equal timestamps are where FIFO order matters.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.5])
NODES = st.integers(0, 2)
#: One-way delay 1.0 between distinct nodes, equal to a timer delay above.
TOPOLOGY = uniform_topology(3, rtt_ms=2.0)


def _extend(inner):
    then = st.lists(inner, max_size=3)
    return st.one_of(
        st.tuples(st.just("timer"), DELAYS, then),
        st.tuples(st.just("transient"), DELAYS, then),
        st.tuples(st.just("send"), NODES, NODES, then))


#: ``("timer" | "transient", delay, then)``, ``("send", src, dst, then)`` or
#: ``("cancel", n)``; ``then`` is what the scheduled event does when it fires.
OPS = st.recursive(st.tuples(st.just("cancel"), st.integers(0, 50)), _extend, max_leaves=24)
#: Where ``run(until)`` stops relative to a pending time: just before, at, past.
NUDGES = st.sampled_from([-math.inf, 0.0, math.inf])
PHASES = st.one_of(
    st.tuples(st.just("apply"), OPS),
    st.tuples(st.just("run_to"), st.integers(0, 20), NUDGES),
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), st.integers(1, 6), st.integers(1, 4),
              st.none() | st.sampled_from([0.0, 0.25, 1.0, 3.0])))


class _Recipient:
    """A network node that fires its side's event for each delivery."""

    def __init__(self, node_id: int, side: "Side") -> None:
        self.node_id = node_id
        self.crashed = False
        self.last_crashed_at = -1.0
        self._side = side

    def receive(self, src: int, event_id: int) -> None:
        self._side.fire(event_id)


class Side:
    """One engine, the schedule applied to it, and what it fired when."""

    def __init__(self, reference: bool) -> None:
        self.reference = reference
        self.sim = reference_simulator.Simulator(seed=3) if reference else Simulator(seed=3)
        self.log = []
        self.handles = []
        self.then = []
        if not reference:
            self.network = Network(self.sim, TOPOLOGY)
            for node_id in range(3):
                self.network.register(_Recipient(node_id, self))

    def fire(self, event_id: int) -> None:
        self.log.append((event_id, self.sim.now))
        for op in self.then[event_id]:
            self.apply(op)

    def apply(self, op) -> None:
        sim = self.sim
        if op[0] == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
            return
        event_id = len(self.then)
        self.then.append(op[-1])
        if op[0] == "timer":
            self.handles.append(sim.schedule(op[1], self.fire, args=(event_id,)))
        elif op[0] == "transient":
            sim._queue.push_transient(sim.now + op[1], self.fire, args=(event_id,))
        elif not self.reference:
            self.network.send(op[1], op[2], event_id)
        else:
            # What the reference engine's Network.send pushed: a transient
            # entry at the jitter-free one-way delay, floored.
            nominal = TOPOLOGY.one_way(op[1], op[2])
            delay = MIN_DELAY_MS if nominal < MIN_DELAY_MS else nominal
            sim._queue.push_transient(sim.now + delay, self.fire, args=(event_id,))

    def pending(self) -> list:
        if not self.reference:
            return reference_simulator.pending_times(self.sim)
        return sorted(entry[0] for entry in self.sim._queue._heap
                      if entry[3] is None or not entry[3].cancelled)

    def phase(self, phase, until: float):
        """Run one phase; ``until`` is the bound a ``run_to`` phase uses."""
        sim = self.sim
        if phase[0] == "apply":
            return self.apply(phase[1])
        if phase[0] == "run_to":
            return sim.run(until=until)
        if phase[0] == "run":
            return sim.run()
        _, more, check_every, delta = phase
        target = len(self.log) + more
        deadline = None if delta is None else sim.now + delta
        return sim.run_until(lambda: len(self.log) >= target, deadline=deadline,
                             check_every=check_every)

    def observed(self) -> tuple:
        return list(self.log), self.sim.now, self.sim.steps_executed, self.pending()


def _bound(side: Side, phase) -> float:
    """The ``until`` of a ``run_to`` phase: at, or one float either side of, a pending time."""
    times = side.pending()
    if not times:
        return side.sim.now + 1.0
    time = times[phase[1] % len(times)]
    return time if phase[2] == 0.0 else math.nextafter(time, phase[2])


def _check(program, phases) -> None:
    new, reference = Side(reference=False), Side(reference=True)
    for op in program:
        new.apply(op)
        reference.apply(op)
    assert new.observed() == reference.observed()
    for step, phase in enumerate(list(phases) + [("run",)]):
        until = _bound(reference, phase) if phase[0] == "run_to" else None
        result = new.phase(phase, until), reference.phase(phase, until)
        assert result[0] == result[1], (step, phase)
        assert new.observed() == reference.observed(), (step, phase)


class TestEngineDifferential:
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(OPS, min_size=1, max_size=8), st.lists(PHASES, max_size=8))
    # A timer and a later transient push at the same instant: the timer, on
    # the heap, was pushed first, so it fires first.
    @example([("timer", 1.0, []), ("transient", 1.0, [])], [])
    # Two transient pushes at one instant: the first one keeps the slot.
    @example([("transient", 1.0, []), ("transient", 1.0, [])], [])
    # The slot holds the only entry, one float past ``until``.
    @example([("transient", 2.5, [])], [("run_to", 0, -math.inf)])
    # A cancelled entry is skipped and not counted.
    @example([("timer", 1.0, []), ("cancel", 0), ("transient", 2.5, [])], [("run_to", 0, 0.0)])
    # A delivery pushed onto the heap while a dispatch waits in the slot.
    @example([("send", 0, 1, [("transient", 0.0, [("send", 1, 1, [])])]),
              ("transient", 1.0, [("transient", 0.0, [])])],
             [("run_until", 2, 2, 1.0)])
    def test_same_firing_order_clock_and_steps(self, program, phases):
        _check(program, phases)


#: ``("push" | "push_transient", time)``, ``("cancel", n)``, ``("pop",)``,
#: ``("peek",)`` or ``("clear",)``.
QUEUE_OPS = st.one_of(
    st.tuples(st.sampled_from(["push", "push_transient"]),
              st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.sampled_from(["pop", "pop", "peek", "clear"])))


def _queue_trace(queue, ops) -> list:
    """Apply ``ops`` to ``queue``; return what each pop and peek saw."""
    handles, seen = [], []
    for label, op in enumerate(ops):
        if op[0] == "push":
            handles.append(queue.push(op[1], print, args=(label,)))
        elif op[0] == "push_transient":
            queue.push_transient(op[1], print, args=(label,))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "pop":
            event = queue.pop()
            seen.append(None if event is None else (event.time, event.args))
        elif op[0] == "peek":
            seen.append(queue.peek_time())
        else:
            queue.clear()
    while (event := queue.pop()) is not None:
        seen.append((event.time, event.args))
    return seen


class TestQueueDifferential:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(QUEUE_OPS, max_size=30))
    def test_pop_peek_and_clear_agree(self, ops):
        assert _queue_trace(EventQueue(), ops) == _queue_trace(reference_simulator.EventQueue(), ops)
