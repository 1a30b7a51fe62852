"""History collection: forget what every replica has delivered, learned by message.

CAESAR's pseudocode never shrinks ``H_i`` (Section V-A), so a predecessor set
on a busy key is the key's whole past: every ``FastProposeReply`` and
``Stable`` carries it, and a long-lived hot key grows its frames without
bound.  A :class:`HistoryCollector` lets its replica remove the entry of every
command that *all* replicas have delivered, and it learns which those are
from the replicas themselves:

* **Reports.**  Every :data:`REPORT_EVERY_MS` a replica sends each peer a
  :class:`~repro.core.messages.Delivered` report: the ids it delivered, as a
  slice of its delivery order (its execution log: CAESAR executes a
  command exactly when it delivers it) starting at ``position`` and at most
  :data:`REPORT_MAX_IDS` long, and ``received``, how many of that peer's
  delivered ids it has counted.  The receiver counts a report's ids only from
  where its count of the sender stands, so a repeat is harmless.
* **Cursors.**  Per peer, the sender remembers how far its reports went
  (``sent``) and how far the peer acknowledged them (``acked``).  When the
  acknowledgement lags for :data:`RESEND_AFTER_REPORTS` reports, the report
  was lost (a dropped frame, a link that reconnected, a crashed peer) and
  ``sent`` goes back to ``acked``: nothing reported is ever leaked.
* **Counting.**  Each id not yet delivered everywhere maps to the bitmask of
  the replicas that reported it, this one included; an id whose mask holds
  every replica is *collectable*.  A replica that reports nothing — crashed,
  partitioned, slow — pins every id it has not reported.
* **Collection.**  A collectable command's entry goes through
  :meth:`~repro.core.history.CommandHistory.remove` (its id stays bound, its
  bit stays delivered) and a promise held for it above its entry's ballot goes
  too (``CaesarReplica.promises``: no ballot state outlives the entry), under
  three rules, each needed for the answers to stay
  the ones the uncollected history gives:

  1. removal waits while a proposal is parked on the command's key — the wait
     manager's incremental masks name entries by bit;
  2. the key's *collected floor* (``bucket.floor`` for every command,
     ``bucket.write_floor`` for writes) rises to the command's timestamp, and
     the wait condition counts a proposal below it as NACKed: a late proposal
     gets the answer the uncollected history would have given;
  3. a later message whose command was collected is dropped by the replica's
     handlers (``CaesarReplica``), never re-creating the entry.

Why it is safe.  A command ``X`` delivered everywhere was delivered before its
collection at every replica, so leaving it out of a later predecessor set
delays no delivery: wherever that set is used, ``X`` is already delivered.
A proposal of ``c`` that still reaches WAIT has not been delivered here, so no
delivered ``X`` lists ``c`` (a delivered command's predecessors are all
delivered); with the uncollected history every conflicting ``X`` collected at
a timestamp above ``c``'s would therefore be a NACK witness, and the floor says
exactly whether one exists.  Recovery and catch-up never ask for a collected
command: both ask only for what is not stable where they run, and every
replica has delivered it.  An amnesiac replica — a process restarted with
empty state — is outside this argument: it cannot be given back what the
others collected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.consensus.command import CommandId
from repro.core.messages import Delivered

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.caesar import CaesarReplica

#: How often a replica reports its deliveries to its peers (and retries the
#: removals rule 1 held back).
REPORT_EVERY_MS = 100.0
#: Most ids one report carries; the rest follow in the next ones.
REPORT_MAX_IDS = 1024
#: Reports a peer may leave unacknowledged before they are sent again.
RESEND_AFTER_REPORTS = 5


class _PeerCursor:
    """What one replica knows about the report traffic with one peer."""

    __slots__ = ("sent", "acked", "unacked_reports", "received", "received_told")

    def __init__(self) -> None:
        #: this replica's delivery order: reported up to ``sent``, of which
        #: the peer acknowledged ``acked``.
        self.sent = 0
        self.acked = 0
        self.unacked_reports = 0
        #: the peer's delivery order: counted up to ``received``, and last
        #: acknowledged to it at ``received_told`` (-1: owe an acknowledgement).
        self.received = 0
        self.received_told = 0


class HistoryCollector:
    """One replica's side of history collection (see the module docstring)."""

    def __init__(self, replica: "CaesarReplica") -> None:
        self.replica = replica
        node_ids = replica.network.node_ids
        self._everyone = sum(1 << node_id for node_id in node_ids)
        self._peers: Dict[int, _PeerCursor] = {
            node_id: _PeerCursor() for node_id in node_ids if node_id != replica.node_id}
        #: id -> bitmask of the replicas that reported delivering it.
        self._reported: Dict[CommandId, int] = {}
        #: ids every replica delivered, still to remove here (rule 1 may hold one back).
        self._collectable: List[CommandId] = []
        #: how much of this replica's own delivery order has been counted.
        self._own = 0

    def report(self) -> None:
        """Count this replica's new deliveries, report them to every peer, collect."""
        replica = self.replica
        log = replica.execution_log
        if self._own < len(log):
            self._count(replica.node_id, log.ids(self._own, len(log)))
            self._own = len(log)
        for peer, cursor in self._peers.items():
            if cursor.acked < cursor.sent:
                cursor.unacked_reports += 1
                if cursor.unacked_reports > RESEND_AFTER_REPORTS:
                    cursor.sent, cursor.unacked_reports = cursor.acked, 0
            else:
                cursor.unacked_reports = 0
            ids = log.ids(cursor.sent, cursor.sent + REPORT_MAX_IDS)
            if ids or cursor.received != cursor.received_told:
                replica.send(peer, Delivered(position=cursor.sent, ids=tuple(ids),
                                             received=cursor.received))
                cursor.sent += len(ids)
                cursor.received_told = cursor.received
        self._collect()

    def on_report(self, src: int, message: Delivered) -> None:
        """Count a peer's report from where this replica's count of it stands."""
        cursor = self._peers.get(src)
        if cursor is None:
            return
        cursor.acked = message.received
        start, ids = message.position, message.ids
        if start <= cursor.received < start + len(ids):
            self._count(src, ids[cursor.received - start:])
            cursor.received = start + len(ids)
            self._collect()
        elif start < cursor.received:
            cursor.received_told = -1   # a resend: the acknowledgement was lost

    def _count(self, node_id: int, ids) -> None:
        bit, everyone = 1 << node_id, self._everyone
        reported, collectable = self._reported, self._collectable
        for command_id in ids:
            mask = reported.pop(command_id, 0) | bit
            if mask == everyone:
                collectable.append(command_id)
            else:
                reported[command_id] = mask

    def _collect(self) -> None:
        """Remove every collectable entry rule 1 lets go, raising its key's floors."""
        if not self._collectable:
            return
        replica = self.replica
        history, wait_manager = replica.history, replica.wait_manager
        held: List[CommandId] = []
        for command_id in self._collectable:
            entry = history.get(command_id)
            if entry is None:
                continue
            if wait_manager.parked and wait_manager.has_parked(entry.command.key):
                held.append(command_id)
                continue
            bucket, stamp = entry.bucket, entry.stamp
            if stamp > bucket.floor:
                bucket.floor = stamp
            if entry.command.is_write and stamp > bucket.write_floor:
                bucket.write_floor = stamp
            history.remove(command_id)
            replica.promises.pop(command_id, None)
            replica.stats.commands_collected += 1
        self._collectable = held
