"""Ballots identify which leader is currently driving a command's decision.

CAESAR (like Paxos) tags every per-command message with a ballot number; an
acceptor ignores messages whose ballot is lower than the highest ballot it
has joined for that command.  Ballot 0 belongs to the command's original
leader; recovery bumps the ballot so that at most one recovering leader can
complete the decision.
"""

from __future__ import annotations

from functools import lru_cache

from repro.runtime.codec import value_type


@value_type
class Ballot:
    """A ``(round, node_id)`` ballot, ordered lexicographically.

    Using the node id as a tie breaker guarantees two different nodes never
    produce the same ballot, so concurrent recoveries always have a winner.

    ``>`` and ``>=`` are written out as for ``LogicalTimestamp`` (``order=True`` builds
    two tuples per comparison, two or three per message); ``<`` / ``<=`` are reflections.
    """

    round: int
    node_id: int

    def __gt__(self, other: "Ballot") -> bool:
        if other.__class__ is not Ballot:
            return NotImplemented
        return self.round > other.round or (
            self.round == other.round and self.node_id > other.node_id)

    def __ge__(self, other: "Ballot") -> bool:
        if other.__class__ is not Ballot:
            return NotImplemented
        return self.round > other.round or (
            self.round == other.round and self.node_id >= other.node_id)

    @classmethod
    @lru_cache(maxsize=None)
    def initial(cls, leader_id: int) -> "Ballot":
        """The ballot the original command leader uses (round 0).

        Cached: round-0 ballots are requested once per message on some hot
        paths, and the class is immutable, so one instance per leader
        suffices.
        """
        return cls(0, leader_id)

    def next_for(self, node_id: int) -> "Ballot":
        """The ballot a recovering node should use to supersede this one."""
        return Ballot(self.round + 1, node_id)
