"""The discrete-event simulator driving all protocol executions.

Virtual time is expressed in **milliseconds** as floats.  The simulator is
purely deterministic: given the same seed and the same sequence of
``schedule`` calls, every run produces the same interleaving.

The :meth:`Simulator.run` / :meth:`Simulator.run_until` loops are the hottest
code in the repository (every simulated message passes through them twice:
network delivery and CPU dispatch), so they operate directly on the event
queue's heap instead of going through per-event method calls.
"""

from __future__ import annotations

from heapq import heappop
from typing import Callable, Optional, Tuple

from repro.sim.events import Event, EventQueue
from repro.sim.random import DeterministicRandom

#: Process-wide count of executed simulation events, across every Simulator
#: instance.  The sweep orchestrator (:mod:`repro.harness.sweep`) samples it
#: around each cell, whose runner builds its simulators internally.
_TOTAL_EVENTS_EXECUTED = 0


def total_events_executed() -> int:
    """Events executed by all simulators in this process (monotonic)."""
    return _TOTAL_EVENTS_EXECUTED


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


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
