"""The clock/timer abstraction shared by every transport backend.

The protocol kernel never reads wall-clock time and never touches an event
loop directly: it asks its *clock* for ``now`` (milliseconds as a float) and
schedules callbacks with ``schedule(delay_ms, callback)``.  Two clocks exist:

* :class:`~repro.sim.simulator.Simulator` — the discrete-event scheduler;
  ``now`` is virtual time and ``schedule`` pushes onto the event heap.  It
  satisfies the interface structurally (no base class on its hot path, and
  nothing here imports it), and its ``now`` is a plain attribute that only
  its run loops write, not a property: it is read once or more per
  simulated message.
* :class:`~repro.net.clock.WallClock` — the asyncio-backed clock used by the
  real-socket transport; ``now`` is monotonic wall time relative to process
  start and ``schedule`` maps onto ``loop.call_later``.

Both return cancellable handles exposing ``cancel()`` / ``cancelled``, and
that handle is the timer protocol code holds — so the kernel's timer
bookkeeping (retransmit scans, catch-up probes, failure detectors, batching
windows) runs unchanged on either substrate.
"""

from __future__ import annotations

import abc
from typing import Callable, Tuple


class Clock(abc.ABC):
    """Time source + deferred-call scheduler a replica runs against.

    The interface is deliberately the subset of
    :class:`~repro.sim.simulator.Simulator` the runtime layer actually uses,
    so the simulator satisfies it structurally; real-time clocks implement
    the same three members over an event loop.  Implementations must also
    carry an ``rng`` attribute (a
    :class:`~repro.sim.random.DeterministicRandom`) so per-component forks
    such as the retransmission jitter stream derive identically everywhere.
    """

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in milliseconds (virtual or monotonic wall time).

        Readers only read it.  The simulator keeps it as a plain attribute
        (``Simulator.now``), written by its run loops alone.
        """

    @abc.abstractmethod
    def schedule(self, delay: float, callback: Callable[..., None], args: Tuple = ()):
        """Run ``callback(*args)`` after ``delay`` milliseconds.

        Returns a cancellable handle with ``cancel()`` and ``cancelled``.
        """
