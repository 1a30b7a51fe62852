"""The simulator engine as it was before the event queue grew its slot.

The parent commit's ``Event``, ``EventQueue`` (``(time, priority, seq, ...)``
heap keys, a ``_live`` counter, every entry on the heap) and ``Simulator``
(per-event step counting, the ``max_steps`` valve), copied verbatim: the
executable specification ``tests/test_sim_engine_differential.py`` drives the
current engine against.  ``SimulationError`` did not change and is imported,
so both engines raise the same type.

:func:`pending_times` is the one place a test reads the *current* engine's
pending entries, slot included.
"""

from __future__ import annotations

import heapq
from heapq import heappop
from typing import Callable, List, Optional, Tuple

from repro.sim.random import DeterministicRandom
from repro.sim.simulator import SimulationError


class Event:
    """A single scheduled callback in the simulation.

    Attributes:
        time: virtual time (milliseconds) at which the event fires.
        priority: lower values fire first among events at the same time.
        seq: monotonically increasing tie-breaker assigned by the queue.
        callback: callable invoked (with ``args``) when the event fires.
        args: positional arguments passed to ``callback`` (pre-bound handlers
            avoid allocating a closure per scheduled message).
        cancelled: cancelled events are skipped when popped.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., None], args: Tuple = ()) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it is ignored when it reaches the queue head."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback with its pre-bound arguments."""
        self.callback(*self.args)


class EventQueue:
    """A priority queue of :class:`Event` objects keyed by virtual time.

    The heap entries are ``(time, priority, seq, event)`` tuples; ``seq`` is
    unique so comparisons never reach the event object.  ``_live`` is an
    upper bound on pending events (cancelled events stay in the heap until
    they surface).
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[..., None], priority: int = 0,
             args: Tuple = ()) -> Event:
        """Schedule ``callback`` at ``time`` and return a cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def push_transient(self, time: float, callback: Callable[..., None],
                       priority: int = 0, args: Tuple = ()) -> None:
        """Schedule a callback that can never be cancelled, with no handle.

        Skips the :class:`Event` allocation entirely — this is the variant the
        per-message hot paths use (two pushes per simulated message).
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, None, callback, args))
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` if the queue is empty.

        Transient entries are wrapped in a fresh :class:`Event` so callers of
        this (cold) method see one uniform type; the run loops bypass it.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            self._live -= 1
            event = entry[3]
            if event is None:
                return Event(entry[0], entry[1], entry[2], entry[4], entry[5])
            if event.cancelled:
                continue
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event is None or not event.cancelled:
                break
            heapq.heappop(heap)
            self._live -= 1
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0


#: Process-wide count of executed simulation events, across every Simulator
#: instance.  The sweep orchestrator (:mod:`repro.harness.sweep`) samples it
#: around each cell, whose runner builds its simulators internally.
_TOTAL_EVENTS_EXECUTED = 0


def total_events_executed() -> int:
    """Events executed by all simulators in this process (monotonic)."""
    return _TOTAL_EVENTS_EXECUTED


class Simulator:
    """A deterministic discrete-event scheduler.

    The simulator owns the virtual clock and the event queue.  Protocol nodes
    and the network never read wall-clock time; everything is expressed as
    virtual milliseconds relative to ``now``.

    Args:
        seed: seed for the simulator-owned random number generator, used by
            the network for jitter and loss and by workloads for arrivals.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self.rng = DeterministicRandom(seed)
        self._steps = 0
        self._max_steps: Optional[int] = None

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def steps_executed(self) -> int:
        """Number of events executed so far."""
        return self._steps

    def schedule(self, delay: float, callback: Callable[..., None], priority: int = 0,
                 args: Tuple = ()) -> Event:
        """Schedule ``callback`` to run ``delay`` milliseconds from now.

        Args:
            delay: non-negative delay in virtual milliseconds.
            callback: callable invoked with ``args`` when the event fires.
            priority: lower priorities fire earlier among simultaneous events.
            args: positional arguments pre-bound to the callback (lets hot
                paths schedule bound methods instead of allocating closures).

        Returns:
            A cancellable :class:`Event` handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self._queue.push(self._now + delay, callback, priority, args)

    def schedule_at(self, time: float, callback: Callable[..., None], priority: int = 0,
                    args: Tuple = ()) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        return self._queue.push(time, callback, priority, args)

    def set_max_steps(self, max_steps: Optional[int]) -> None:
        """Abort a run after ``max_steps`` events (safety valve for tests)."""
        self._max_steps = max_steps

    def _check_max_steps(self) -> None:
        if self._max_steps is not None and self._steps > self._max_steps:
            raise SimulationError(f"exceeded max_steps={self._max_steps}")

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if the queue is empty."""
        global _TOTAL_EVENTS_EXECUTED
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event time moved backwards")
        self._now = event.time
        self._steps += 1
        _TOTAL_EVENTS_EXECUTED += 1
        event.callback(*event.args)
        self._check_max_steps()
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until`` at
        the end of the run, even if the last event fired earlier.
        """
        global _TOTAL_EVENTS_EXECUTED
        heap = self._queue._heap
        queue = self._queue
        executed = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                queue._live -= 1
                event = entry[3]
                if event is None:
                    callback = entry[4]
                    args = entry[5]
                else:
                    if event.cancelled:
                        continue
                    callback = event.callback
                    args = event.args
                self._now = time
                self._steps += 1
                executed += 1
                callback(*args)
                if self._max_steps is not None:
                    self._check_max_steps()
        finally:
            # The process-wide counter is flushed per run() call: perf
            # trackers sample it between runs, never from inside callbacks.
            _TOTAL_EVENTS_EXECUTED += executed
        if until is not None and until > self._now:
            self._now = until

    def run_until(self, predicate: Callable[[], bool], deadline: Optional[float] = None,
                  check_every: int = 1) -> bool:
        """Run until ``predicate()`` is true.

        Args:
            predicate: completion condition.  With ``check_every == 1``
                (default) it is evaluated after every event; larger cadences
                amortize expensive predicates over many events.
            deadline: optional absolute virtual-time bound.
            check_every: evaluate the predicate every N executed events.  With
                a cadence above 1 up to ``check_every - 1`` extra events may
                run after the predicate first becomes true; the event
                *ordering* is unaffected, so cadence never changes simulation
                outcomes for monotone predicates.

        Returns:
            ``True`` if the predicate was satisfied, ``False`` if the queue
            drained or the deadline passed first.
        """
        global _TOTAL_EVENTS_EXECUTED
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if predicate():
            return True
        heap = self._queue._heap
        queue = self._queue
        executed = 0
        since_check = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if deadline is not None and time > deadline:
                    self._now = deadline
                    return predicate()
                heappop(heap)
                queue._live -= 1
                event = entry[3]
                if event is None:
                    callback = entry[4]
                    args = entry[5]
                else:
                    if event.cancelled:
                        continue
                    callback = event.callback
                    args = event.args
                self._now = time
                self._steps += 1
                executed += 1
                callback(*args)
                if self._max_steps is not None:
                    self._check_max_steps()
                since_check += 1
                if since_check >= check_every:
                    since_check = 0
                    if predicate():
                        return True
            return predicate()
        finally:
            _TOTAL_EVENTS_EXECUTED += executed


def pending_times(sim) -> List[float]:
    """Sorted firing times of every live entry of a current-engine ``Simulator``.

    Reads the slot as well as the heap, and skips cancelled entries.
    """
    queue = sim._queue
    entries = list(queue._heap)
    if queue._slot is not None:
        entries.append(queue._slot)
    return sorted(entry[0] for entry in entries if entry[4] is None or not entry[4].cancelled)
