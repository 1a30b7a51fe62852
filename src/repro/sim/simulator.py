"""The discrete-event simulator driving all protocol executions.

Virtual time is expressed in **milliseconds** as floats.  The simulator is
purely deterministic: given the same seed and the same sequence of
``schedule`` calls, every run produces the same interleaving.  Events fire in
``(time, seq)`` order: by time, then in the order they were scheduled.

The :meth:`Simulator.run` / :meth:`Simulator.run_until` loops are the hottest
code in the repository (every simulated message passes through them twice:
network delivery and CPU dispatch), so they operate directly on the event
queue's slot and heap instead of going through per-event method calls: each
iteration takes the smaller of the slot entry and the heap head (see
:mod:`repro.sim.events`).  They count executed events once per call.
"""

from __future__ import annotations

from heapq import heappop
from typing import Callable, Tuple

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

    def __init__(self, seed: int) -> None:
        self._queue = EventQueue()
        #: Current virtual time in milliseconds.  A plain attribute, read once
        #: or more per simulated message; only the run loops write it.
        self.now = 0.0
        self.rng = DeterministicRandom(seed)
        self._steps = 0

    @property
    def steps_executed(self) -> int:
        """Number of events executed by completed run calls."""
        return self._steps

    def schedule(self, delay: float, callback: Callable[..., None], args: Tuple = ()) -> Event:
        """Schedule ``callback`` to run ``delay`` milliseconds from now.

        Args:
            delay: non-negative delay in virtual milliseconds.
            callback: callable invoked with ``args`` when the event fires.
            args: positional arguments pre-bound to the callback (lets hot
                paths schedule bound methods instead of allocating closures).

        Returns:
            A cancellable :class:`Event` handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], args: Tuple = ()) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self._queue.push(time, callback, args)

    def run(self, until: float) -> None:
        """Run until the queue drains or virtual time reaches ``until``.

        The clock is advanced to exactly ``until`` at the end of the run, even
        if the last event fired earlier.
        """
        global _TOTAL_EVENTS_EXECUTED
        queue = self._queue
        heap = queue._heap
        executed = 0
        try:
            while True:
                entry = queue._slot
                if entry is not None and (not heap or entry < heap[0]):
                    if entry[0] > until:
                        break
                    queue._slot = None
                elif heap:
                    if heap[0][0] > until:
                        break
                    entry = heappop(heap)
                else:
                    break
                time, _, callback, args, event = entry
                if event is not None and event.cancelled:
                    continue
                self.now = time
                executed += 1
                callback(*args)
        finally:
            # Both counters are flushed per run() call: perf trackers sample
            # them between runs, never from inside callbacks.
            self._steps += executed
            _TOTAL_EVENTS_EXECUTED += executed
        if until > self.now:
            self.now = until

    def run_until(self, predicate: Callable[[], bool], deadline: float,
                  check_every: int = 1) -> bool:
        """Run until ``predicate()`` is true.

        Args:
            predicate: completion condition.  With ``check_every == 1``
                (default) it is evaluated after every event; larger cadences
                amortize expensive predicates over many events.
            deadline: absolute virtual-time bound, not before ``now`` (a
                past deadline raises :class:`SimulationError`).
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
        if deadline < self.now:
            raise SimulationError(f"deadline {deadline} < now {self.now}")
        if predicate():
            return True
        queue = self._queue
        heap = queue._heap
        executed = 0
        since_check = 0
        try:
            while True:
                entry = queue._slot
                if entry is not None and (not heap or entry < heap[0]):
                    if entry[0] > deadline:
                        break
                    queue._slot = None
                elif heap:
                    if heap[0][0] > deadline:
                        break
                    entry = heappop(heap)
                else:
                    return predicate()
                time, _, callback, args, event = entry
                if event is not None and event.cancelled:
                    continue
                self.now = time
                executed += 1
                callback(*args)
                since_check += 1
                if since_check >= check_every:
                    since_check = 0
                    if predicate():
                        return True
            # The head was past the deadline; if it was a cancelled entry and
            # nothing live is left, the run drained and the clock stays.
            if queue.peek_time() is not None:
                self.now = deadline
            return predicate()
        finally:
            self._steps += executed
            _TOTAL_EVENTS_EXECUTED += executed
