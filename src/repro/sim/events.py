"""Event primitives for the discrete-event simulator.

An :class:`Event` is a callback scheduled at a virtual time.  Every queue
entry is one tuple shape, ``(time, seq, callback, args, event)``, keyed by
``(time, seq)``: heap reordering happens entirely in C tuple comparisons, and
``seq`` is unique, so the slots after it are never compared.  Simultaneous
events fire in the order they were pushed (FIFO).

Cancellation is lazy: :meth:`Event.cancel` only flips a flag, and cancelled
events are skipped when they reach the queue head.  This keeps both scheduling
and cancellation O(log n) / O(1) with no heap surgery.

:meth:`EventQueue.push` returns a cancellable :class:`Event` handle and puts
it in the entry's last slot; :meth:`EventQueue.push_transient` leaves that
slot ``None`` and allocates no handle.  The transient entries are the
per-message ones (network delivery and CPU dispatch), which are never
cancelled.

One never-cancelled entry may sit in ``EventQueue._slot``, in front of the
heap.  :meth:`EventQueue.push_transient` keeps whichever of the slot entry and
the new entry sorts first by ``(time, seq)`` and heaps the other, so a CPU
dispatch that is the very next event never touches the heap.  Whoever takes
the next event (the :class:`~repro.sim.simulator.Simulator` run loops,
:meth:`EventQueue.peek_time`) takes the smaller of
the slot entry and the heap head.  That makes any transient entry safe to push
straight onto the heap, which is what :meth:`repro.sim.network.Network.send`
does with a delivery: the slot is an entry kept outside the heap, not a
promise that it is the earliest one.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Tuple


class Event:
    """A single scheduled callback in the simulation.

    Attributes:
        time: virtual time (milliseconds) at which the event fires.
        seq: monotonically increasing tie-breaker assigned by the queue.
        callback: callable invoked (with ``args``) when the event fires.
        args: positional arguments passed to ``callback`` (pre-bound handlers
            avoid allocating a closure per scheduled message).
        cancelled: cancelled events are skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: Tuple = ()) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it is ignored when it reaches the queue head."""
        self.cancelled = True


class EventQueue:
    """A queue of scheduled callbacks ordered by ``(time, seq)``.

    ``_heap`` holds ``(time, seq, callback, args, event)`` tuples; ``_slot``
    is ``None`` or one more such tuple, never cancellable, that is not in the
    heap.  The next event is the smaller of the two heads.
    """

    __slots__ = ("_heap", "_seq", "_slot")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._slot: Optional[tuple] = None

    def push(self, time: float, callback: Callable[..., None], args: Tuple) -> Event:
        """Schedule ``callback`` at ``time`` and return a cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, callback, args, event))
        return event

    def push_transient(self, time: float, callback: Callable[..., None],
                       args: Tuple) -> None:
        """Schedule a callback that can never be cancelled, with no handle.

        The new entry takes the slot when the slot is empty or when it sorts
        before the slot entry; whichever of the two does not sort first goes
        to the heap.  Its ``seq`` is the largest yet, so it sorts first
        exactly when its time is strictly earlier.
        """
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, callback, args, None)
        slot = self._slot
        if slot is None:
            self._slot = entry
        elif time < slot[0]:
            self._slot = entry
            heapq.heappush(self._heap, slot)
        else:
            heapq.heappush(self._heap, entry)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            heapq.heappop(heap)
        slot = self._slot
        if slot is not None and (not heap or slot < heap[0]):
            return slot[0]
        return heap[0][0] if heap else None
