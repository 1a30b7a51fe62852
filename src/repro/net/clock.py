"""Monotonic wall clock + asyncio timer service satisfying the kernel's API.

:class:`WallClock` is the real-time counterpart of the discrete-event
:class:`~repro.sim.simulator.Simulator`: the same ``now`` (milliseconds,
float) and ``schedule(delay_ms, callback, args)`` surface, backed
by the asyncio event loop's monotonic clock instead of an event heap.  The
protocol kernel, the retransmission buffer, the catch-up probes and the
closed/open-loop clients all run unchanged against it.

Time starts at 0.0 when the clock is created (process start for a replica),
so durations and timer math behave exactly like virtual time; absolute
values are process-local and never cross the wire.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Tuple

from repro.runtime.clock import Clock
from repro.sim.random import DeterministicRandom


class ScheduledCall:
    """Cancellable handle for one wall-clock deferred call.

    Duck-type of :class:`~repro.sim.events.Event` as far as the runtime
    needs: ``cancel()`` and ``cancelled``.
    """

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled


class WallClock(Clock):
    """Clock over the asyncio event loop's monotonic time source.

    Args:
        seed: seed for the clock-owned :class:`DeterministicRandom`; per-node
            forks (retransmission jitter, workload streams) derive from it
            with exactly the same labels as in the simulator, so stochastic
            *choices* stay reproducible even though timing is real.
        loop: event loop to schedule on (default: the running loop; building
            a clock with neither raises ``RuntimeError``).
    """

    def __init__(self, seed: int = 0, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop or asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.rng = DeterministicRandom(seed)

    @property
    def now(self) -> float:
        """Milliseconds of monotonic time since the clock was created."""
        return (self._loop.time() - self._t0) * 1000.0

    def schedule(self, delay: float, callback: Callable[..., None],
                 args: Tuple = ()) -> ScheduledCall:
        """Run ``callback(*args)`` after ``delay`` milliseconds of wall time.

        The event loop fires same-deadline callbacks in scheduling order, as
        the simulator does, and that is the only ordering protocol code
        relies on in real time.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        if delay <= 0:
            # call_soon keeps zero-delay dispatch (the per-message hot path)
            # off the heap-based timer queue.
            handle = self._loop.call_soon(callback, *args)
        else:
            handle = self._loop.call_later(delay / 1000.0, callback, *args)
        return ScheduledCall(handle)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    args: Tuple = ()) -> ScheduledCall:
        """Schedule ``callback`` at an absolute clock reading (ms since start)."""
        return self.schedule(max(0.0, time - self.now), callback, args)
