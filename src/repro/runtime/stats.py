"""The unified per-replica statistics record.

Every protocol replica used to define its own ``*Stats`` dataclass
(``CaesarStats``, ``EPaxosStats``, ...), which forced reporting code to know
which protocol it was looking at before touching a counter.  The runtime
kernel gives every replica one :class:`ProtocolStats` record instead: the
union of all protocol counters, zero-initialized, so reporting can iterate
the non-zero counters of *any* replica without special-casing protocol names.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ProtocolStats:
    """Protocol-internal counters surfaced to the experiment harness.

    Counters irrelevant to a protocol simply stay zero; :meth:`non_zero`
    yields only the meaningful ones for reporting.
    """

    # Decision paths (CAESAR, EPaxos, M2Paxos).
    fast_decisions: int = 0
    slow_decisions: int = 0
    # CAESAR phases.
    retries: int = 0
    slow_proposals: int = 0
    nacks_sent: int = 0
    recoveries_started: int = 0
    recoveries_completed: int = 0
    commands_collected: int = 0
    # EPaxos execution/recovery.
    graph_nodes_visited: int = 0
    recoveries: int = 0
    # Slot-based protocols (Multi-Paxos, Mencius).
    slots_proposed: int = 0
    slots_committed: int = 0
    slots_skipped: int = 0
    elections: int = 0
    # Forwarding / ownership (Multi-Paxos, M2Paxos).
    commands_forwarded: int = 0
    acquisitions: int = 0
    acquisition_failures: int = 0
    acquisition_backoffs: int = 0
    local_decisions: int = 0
    accepts_preempted: int = 0
    # Runtime retransmission / catch-up.
    retransmissions_sent: int = 0
    catchup_requests: int = 0
    catchup_replies: int = 0

    def non_zero(self):
        """``(name, value)`` pairs of every counter that moved, in field order."""
        return [(spec.name, getattr(self, spec.name)) for spec in fields(self)
                if getattr(self, spec.name)]
