"""The event engine against a statement of the order it must fire events in.

The spec below is a sorted list of pending events and four rules:

* events fire in ``(time, scheduling order)``;
* a cancelled event never fires and is never counted in ``steps_executed``;
* ``run(until)`` fires every event at or before ``until``, then sets the
  clock to ``until`` if it is still behind;
* ``run_until`` checks its predicate every ``check_every`` firings, stops at
  its deadline (the clock moves to it while anything is left pending) and
  refuses a deadline in the past.

A network send is, in the spec, a push at the jitter-free one-way delay,
floored at ``MIN_DELAY_MS``.  The product keeps one never-cancelled entry in
a slot in front of its heap, keys by ``(time, seq)``, counts steps once per
run call and lets ``Network.send`` push deliveries straight onto the heap;
none of that may show.  Hypothesis drives both with the same random schedules
and asserts, after every phase, the same firing order, the same ``now`` at
each firing, the same ``now`` and ``steps_executed`` between phases, the same
return value and the same pending times.

A schedule is a tree: each scheduled event carries the operations it performs
when it fires (nested pushes, zero-delay ones included, and cancels), so the
CPU-dispatch pattern - a delivery that pushes the next event - arises on its
own.  The phases between them are ``run(until)`` (with ``until`` exactly at a
pending time or one float either side of it), ``run()`` and ``run_until`` with
a cadence and a deadline.

:func:`pending_times` is the probe every test uses to read the product's
pending entries, slot included.
"""

from __future__ import annotations

import bisect
import math
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.network import MIN_DELAY_MS, Network, NetworkConfig
from repro.sim.simulator import SimulationError, Simulator
from tests.conftest import drain, uniform_topology


def pending_times(sim) -> List[float]:
    """Sorted firing times of every live entry of a product ``Simulator``.

    Reads the slot as well as the heap, and skips cancelled entries.
    """
    queue = sim._queue
    entries = list(queue._heap)
    if queue._slot is not None:
        entries.append(queue._slot)
    return sorted(entry[0] for entry in entries if entry[4] is None or not entry[4].cancelled)


# ------------------------------------------------------------------ the spec

class SpecEvent:
    """A pending callback; ``seq`` is its place in scheduling order."""

    def __init__(self, time: float, seq: int, callback, args: tuple) -> None:
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SpecQueue:
    """Pending events in a list sorted by ``(time, scheduling order)``."""

    def __init__(self) -> None:
        self.events: List[SpecEvent] = []
        self.seq = 0

    def push(self, time: float, callback, args: tuple = ()) -> SpecEvent:
        event = SpecEvent(time, self.seq, callback, args)
        self.seq += 1
        bisect.insort(self.events, event, key=lambda pending: (pending.time, pending.seq))
        return event

    push_transient = push

    def live(self) -> List[SpecEvent]:
        self.events = [event for event in self.events if not event.cancelled]
        return self.events

    def pop(self):
        return self.live().pop(0) if self.live() else None

    def peek_time(self):
        return self.live()[0].time if self.live() else None


class SpecSimulator:
    """A clock, a :class:`SpecQueue` and the firing rules of the module docstring."""

    def __init__(self) -> None:
        self._queue = SpecQueue()
        self.now = 0.0
        self.steps_executed = 0

    def schedule(self, delay: float, callback, args: tuple = ()) -> SpecEvent:
        return self._queue.push(self.now + delay, callback, args)

    def _fire_next(self, limit: float) -> bool:
        """Fire the first live event if it is due at or before ``limit``."""
        time = self._queue.peek_time()
        if time is None or time > limit:
            return False
        event = self._queue.pop()
        self.now = event.time
        self.steps_executed += 1
        event.callback(*event.args)
        return True

    def run(self, until=None) -> None:
        while self._fire_next(math.inf if until is None else until):
            pass
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, predicate, deadline=None, check_every: int = 1) -> bool:
        if deadline is not None and deadline < self.now:
            raise SimulationError(f"deadline {deadline} < now {self.now}")
        if predicate():
            return True
        fired = 0
        while self._fire_next(math.inf if deadline is None else deadline):
            fired += 1
            if fired % check_every == 0 and predicate():
                return True
        if self._queue.peek_time() is not None:
            self.now = deadline
        return predicate()


# ------------------------------------------------------------ the schedules

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

    def __init__(self, spec: bool) -> None:
        self.spec = spec
        self.sim = SpecSimulator() if spec else Simulator(seed=3)
        self.log = []
        self.handles = []
        self.then = []
        if not spec:
            self.network = Network(self.sim, TOPOLOGY, NetworkConfig())
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
        elif not self.spec:
            self.network.send(op[1], op[2], event_id)
        else:
            delay = max(TOPOLOGY.one_way(op[1], op[2]), MIN_DELAY_MS)
            sim._queue.push(sim.now + delay, self.fire, args=(event_id,))

    def pending(self) -> list:
        return [event.time for event in self.sim._queue.live()] if self.spec \
            else pending_times(self.sim)

    def phase(self, phase, until: float):
        """Run one phase; ``until`` is the bound a ``run_to`` phase uses."""
        sim = self.sim
        if phase[0] == "apply":
            return self.apply(phase[1])
        if phase[0] == "run_to":
            return sim.run(until=until)
        if phase[0] == "run":
            return drain(sim)
        _, more, check_every, delta = phase
        target = len(self.log) + more
        deadline = math.inf if delta is None else sim.now + delta
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
    new, spec = Side(spec=False), Side(spec=True)
    for op in program:
        new.apply(op)
        spec.apply(op)
    assert new.observed() == spec.observed()
    for step, phase in enumerate(list(phases) + [("run",)]):
        until = _bound(spec, phase) if phase[0] == "run_to" else None
        result = new.phase(phase, until), spec.phase(phase, until)
        assert result[0] == result[1], (step, phase)
        assert new.observed() == spec.observed(), (step, phase)


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
    # A cancelled head past the deadline with nothing live behind it: the run
    # drained, so the clock stays where the last event left it.
    @example([("timer", 1.0, []), ("cancel", 0)], [("run_until", 1, 1, 0.25)])
    # A delivery that, as it fires, pushes a transient at the instant of a
    # second delivery queued before it: that delivery was pushed first, so it
    # fires first.
    @example([("send", 0, 0, [("transient", 0.0, [])]), ("send", 0, 0, [])],
             [("run_to", 0, 0.0)])
    # A transient push and a later timer at the same instant: the transient first.
    @example([("transient", 0.25, []), ("timer", 0.25, [])], [("run_to", 0, 0.0)])
    # A transient in the slot past a ``run_until`` deadline stays pending.
    @example([("cancel", 0)], [("apply", ("transient", 0.25, [])), ("run_until", 1, 1, 0.0)])
    # A drain skips a cancelled timer without counting it as a step.
    @example([("timer", 0.0, []), ("cancel", 0)], [])
    def test_same_firing_order_clock_and_steps(self, program, phases):
        _check(program, phases)

    def test_both_refuse_a_past_deadline(self):
        for sim in (Simulator(seed=0), SpecSimulator()):
            sim.run(until=5.0)
            with pytest.raises(SimulationError):
                sim.run_until(lambda: False, deadline=4.0)
            assert sim.now == 5.0


#: ``("push" | "push_transient", time)``, ``("cancel", n)``, ``("step",)`` or
#: ``("peek",)``.
QUEUE_OPS = st.one_of(
    st.tuples(st.sampled_from(["push", "push_transient"]),
              st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.sampled_from(["step", "step", "peek"])))


def _queue_trace(sim, ops) -> tuple:
    """Apply ``ops`` to ``sim``'s queue, a ``step`` firing one event through
    ``run_until``, then drain it with ``run``; return what each step fired and
    each peek saw, and every ``(time, label)`` fired, in firing order."""
    queue, handles, fired, seen = sim._queue, [], [], []

    def record(label) -> None:
        fired.append((sim.now, label))

    for label, op in enumerate(ops):
        if op[0] == "push":
            handles.append(queue.push(op[1], record, args=(label,)))
        elif op[0] == "push_transient":
            queue.push_transient(op[1], record, args=(label,))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "step":
            before = len(fired)
            sim.run_until(lambda: len(fired) > before, deadline=math.inf)
            seen.append(fired[before] if len(fired) > before else None)
        else:
            seen.append(queue.peek_time())
    drain(sim)
    return seen, fired, sim.steps_executed


class TestQueueDifferential:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(QUEUE_OPS, max_size=30))
    def test_step_and_peek_agree(self, ops):
        assert _queue_trace(Simulator(seed=0), ops) == _queue_trace(SpecSimulator(), ops)
