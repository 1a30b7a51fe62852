"""Logical timestamps used by CAESAR's ordering layer.

Section V-A of the paper defines the per-node logical clock ``TS_i`` whose
values live in ``{<k, i> : k in N}`` and are totally ordered first by ``k``
and then by the node id.  Two different nodes therefore can never generate
equal timestamps, which is what lets CAESAR order conflicting commands by
timestamp alone.
"""

from __future__ import annotations

from dataclasses import dataclass


class TimestampRangeError(ValueError):
    """A timestamp's node id does not fit in 32 bits (only a peer can send one)."""


@dataclass(frozen=True, slots=True)
class LogicalTimestamp:
    """A ``<k, node_id>`` logical timestamp.

    Ordering: ``<k1, i> < <k2, j>`` iff ``k1 < k2`` or (``k1 == k2`` and
    ``i < j``).

    The comparison operators are written out explicitly (instead of using
    ``functools.total_ordering`` over tuples): timestamp comparisons sit on
    the wait-condition hot path, where the derived operators' extra call and
    tuple allocations are measurable.
    """

    counter: int
    node_id: int

    def __lt__(self, other: "LogicalTimestamp") -> bool:
        if not isinstance(other, LogicalTimestamp):
            return NotImplemented
        if self.counter != other.counter:
            return self.counter < other.counter
        return self.node_id < other.node_id

    def __le__(self, other: "LogicalTimestamp") -> bool:
        if not isinstance(other, LogicalTimestamp):
            return NotImplemented
        if self.counter != other.counter:
            return self.counter < other.counter
        return self.node_id <= other.node_id

    def __gt__(self, other: "LogicalTimestamp") -> bool:
        if not isinstance(other, LogicalTimestamp):
            return NotImplemented
        if self.counter != other.counter:
            return self.counter > other.counter
        return self.node_id > other.node_id

    def __ge__(self, other: "LogicalTimestamp") -> bool:
        if not isinstance(other, LogicalTimestamp):
            return NotImplemented
        if self.counter != other.counter:
            return self.counter > other.counter
        return self.node_id >= other.node_id

    def next_for(self, node_id: int) -> "LogicalTimestamp":
        """The smallest timestamp owned by ``node_id`` strictly greater than self."""
        if node_id > self.node_id:
            return LogicalTimestamp(self.counter, node_id)
        return LogicalTimestamp(self.counter + 1, node_id)

    def __str__(self) -> str:
        return f"<{self.counter},{self.node_id}>"


class TimestampGenerator:
    """Per-node monotonically increasing timestamp source.

    The generator implements the two update rules from Section V-A:

    * whenever the node proposes a command it uses a fresh value greater than
      anything it has handled so far (:meth:`next_timestamp`);
    * whenever it observes a timestamp ``T`` from another node it advances its
      clock beyond ``T`` (:meth:`observe`).
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        #: The clock is ``<_counter, node_id>``; only the counter ever changes.
        self._counter = 0

    @property
    def current(self) -> LogicalTimestamp:
        """The latest value of the clock (already used or observed)."""
        return LogicalTimestamp(self._counter, self.node_id)

    def next_timestamp(self) -> LogicalTimestamp:
        """Return a fresh timestamp for a command proposed by this node."""
        self._counter += 1
        return LogicalTimestamp(self._counter, self.node_id)

    def observe(self, timestamp: LogicalTimestamp) -> None:
        """Advance the clock past an externally observed timestamp (every message's)."""
        counter = timestamp.counter
        if counter > self._counter or (counter == self._counter
                                       and timestamp.node_id >= self.node_id):
            self._counter = counter + 1

    def suggestion_greater_than(self, timestamp: LogicalTimestamp) -> LogicalTimestamp:
        """A fresh local timestamp strictly greater than ``timestamp``.

        Used when an acceptor rejects a proposal and must suggest a new,
        larger timestamp for the command (Section IV-B).
        """
        self.observe(timestamp)
        return self.next_timestamp()
