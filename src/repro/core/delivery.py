"""Delivery of stable commands (stable phase, Figure 3 lines 9-17).

Once a command is stable locally it may only be executed after every command
in its predecessor set has been executed.  Because predecessor sets are
computed against *proposed* timestamps (which a retry can later raise), two
stable commands can reference each other; BREAKLOOP removes the edge that
contradicts the final timestamp order, so the remaining precedence graph is
acyclic and delivery always makes progress.

A predecessor set only names commands of its own key, so the delivered set
is kept per key, as a bitmask on the key's interner (``bucket.delivered``),
and DELIVERABLE is a single mask test.  A stable command that cannot be
delivered yet is filed in its bucket's ``waiters`` (made on the key's first
filing; most keys never have one) under the index of each predecessor still
blocking it, so a stable event re-reconciles only the commands filed under
the new command's bit, and a delivery re-tests only the commands filed under
the delivered one — never every pending command.
Nothing else can make a pending command deliverable: once an entry is STABLE
only this class writes its ``pred_mask``.  :meth:`DeliveryManager.on_stable`
is handed the entry the replica just wrote; it fetches the entry itself only
for a caller without one.

The delivered set is closed under predecessors (a command is delivered only
once its mask is inside it, and masks of stable entries only lose bits), so
BREAKLOOP has nothing to reconcile between a newly stable command and a
predecessor delivered earlier on its key; it walks the rest of the mask —
what is still undecided or undelivered — not the whole, never-collected past
(:func:`repro.core.invariants.check_delivered_closed` checks the premise).

:class:`HistoryCompactor` is the (opt-in) garbage collector: once a command
has been delivered by *every* replica it can never influence another
decision, so each replica's history entry for it is removed — long overload
runs stop scanning dead entries.  This is a cluster-level oracle and is
therefore driven from the harness, not from the protocol.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.consensus.command import Command, CommandId
from repro.core.history import LOOK_UP, CommandHistory, CommandStatus, HistoryEntry


#: A pending command as filed and queued: ``(ts_key, filing sequence, command,
#: entry)``.  A round delivers in timestamp order; equal timestamps (which the
#: protocol never issues) fall back to the order the commands became pending in.
_Waiter = Tuple[Tuple[int, int], int, Command, HistoryEntry]
_ROUND_ORDER = itemgetter(0, 1)


class DeliveryManager:
    """Per-replica executor of stable commands in predecessor order.

    Args:
        history: the replica's command history (shared, mutated by BREAKLOOP).
        execute: callback that applies a command to the state machine (the
            replica's also tells proposals waiting on the command and records metrics).
    """

    def __init__(self, history: CommandHistory, execute: Callable[[Command], None]) -> None:
        self._history = history
        self._execute = execute
        self._pending: Dict[CommandId, Command] = {}
        # Blocker index, per bucket (``waiters``): index of an undelivered
        # predecessor -> the pending commands filed under it.  BREAKLOOP may
        # since have released one, so readers re-test.  A list is popped when
        # its blocker is delivered: all are empty whenever ``_pending`` is.
        self._filed = 0
        self.delivered_order: List[CommandId] = []

    @property
    def delivered_count(self) -> int:
        """Number of commands executed by this replica so far."""
        return len(self.delivered_order)

    def is_delivered(self, command_id: CommandId) -> bool:
        """Whether the command has been executed locally."""
        bucket = self._history.bucket_of(command_id)
        return bucket is not None and (bucket.delivered >> bucket.index_of[command_id]) & 1 == 1

    def pending_count(self) -> int:
        """Stable commands still waiting for their predecessors."""
        return len(self._pending)

    def missing_predecessors(self) -> Set[CommandId]:
        """Predecessors blocking pending commands that are not stable locally.

        These are the commands whose STABLE message this replica has not seen
        (lost, or decided while it was crashed/partitioned) — exactly what a
        catch-up request should ask peers for.  Predecessors that are stable
        locally but undelivered are excluded: delivery will reach them.

        Read off the blocker index of each pending command's key: BREAKLOOP
        only ever releases the bit of a stable command, so every command filed
        under a blocker that is not stable is still pending and waiting on it.
        """
        missing: Set[CommandId] = set()
        for key in dict.fromkeys(command.key for command in self._pending.values()):
            bucket = self._history.bucket(key)
            for index in (bucket.waiters if bucket is not None else None) or ():
                entry = self._history.get(bucket.id_of[index])
                if entry is None or entry.status is not CommandStatus.STABLE:
                    missing.add(bucket.id_of[index])
        return missing

    # --------------------------------------------------------------- helpers

    def _break_loop(self, entry: HistoryEntry) -> None:
        """BREAKLOOP from Figure 3: reconcile mutual predecessor references.

        For the newly stable command ``c`` and every *stable* command ``c̄`` in
        its predecessor set: if ``c̄`` has a smaller final timestamp, ``c`` must
        not appear among ``c̄``'s predecessors; if ``c̄`` has a larger final
        timestamp, ``c̄`` must not appear among ``c``'s predecessors.

        Predecessors already delivered, on ``c``'s key and strictly earlier
        are not walked: such a ``c̄`` is stable with a smaller timestamp, so
        the only edit would be ``c``'s bit out of its mask, and its mask was
        inside the delivered set when it was delivered, has only lost bits
        since, and ``c`` is not delivered.
        """
        bucket = entry.bucket
        get, id_of = self._history.get, bucket.id_of
        my_bit = 1 << entry.index
        my_key = entry.ts_key()
        mask = entry.pred_mask
        remove = 0
        remaining = mask & ~(bucket.delivered
                             & bucket.prefix_mask(entry.timestamp, writes_only=False))
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            pred_entry = get(id_of[low.bit_length() - 1])
            if pred_entry is None or pred_entry.status is not CommandStatus.STABLE:
                continue
            if pred_entry.ts_key() < my_key:
                pred_entry.pred_mask &= ~my_bit
            else:
                remove |= low
        if remove:
            entry.pred_mask = mask & ~remove

    def _is_ready(self, entry: HistoryEntry) -> bool:
        """DELIVERABLE, for an entry that may have been delivered since it was filed."""
        delivered = entry.bucket.delivered
        return entry.pred_mask & ~delivered == 0 and not (delivered >> entry.index) & 1

    def _file(self, command: Command, entry: HistoryEntry, ready: List[_Waiter]) -> None:
        """Queue a pending command in ``ready``, or file it under every blocker."""
        self._filed += 1
        waiter = (entry.ts_key(), self._filed, command, entry)
        blocked = entry.pred_mask & ~entry.bucket.delivered
        if not blocked:
            ready.append(waiter)
        elif entry.bucket.waiters is None:
            entry.bucket.waiters = {}
        waiters = entry.bucket.waiters
        while blocked:
            low = blocked & -blocked
            blocked ^= low
            waiters.setdefault(low.bit_length() - 1, []).append(waiter)

    # -------------------------------------------------------------- main API

    def on_stable(self, command: Command,
                  entry: Optional[HistoryEntry] = LOOK_UP) -> List[Command]:
        """Register a newly stable command and deliver everything now possible.

        The caller has recorded the command as STABLE in the history first (one
        that is not is held back until :meth:`retry_pending`) and passes the
        entry it wrote when it holds it.  Returns the list of commands
        delivered as a result (in order).
        """
        command_id = command.command_id
        if entry is LOOK_UP:
            entry = self._history.get(command_id)
        if entry is None:
            # A collected command has no entry, but its bit is still delivered.
            if not self.is_delivered(command_id):
                self._pending[command_id] = command
            return []
        delivered = entry.bucket.delivered
        if (delivered >> entry.index) & 1:
            return []
        if entry.status is not CommandStatus.STABLE:
            self._pending[command_id] = command
            return []
        if not self._pending and entry.pred_mask & ~delivered == 0:
            # Fast path for the overwhelmingly common case: nothing else is
            # waiting and every predecessor has already been delivered, so
            # the command can be executed without the loop-breaking or
            # ready-list machinery (which would reach the same conclusion).
            self._deliver(command, entry)
            return [command]
        self._pending[command_id] = command
        self._break_loop(entry)
        # The new command may also unblock older stable commands whose
        # predecessor sets reference it: exactly the ones filed under its bit
        # (every other pending pair is unchanged since the stable event that
        # last reconciled it).  No other mask is edited, so these and the new
        # command are the only candidates for the first round.
        bit = 1 << entry.index
        my_key = entry.ts_key()
        ready: List[_Waiter] = []
        for waiter in (entry.bucket.waiters or {}).get(entry.index, ()):
            other = waiter[3]
            if my_key < waiter[0]:
                entry.pred_mask &= ~(1 << other.index)
            else:
                other.pred_mask &= ~bit
                if self._is_ready(other):
                    ready.append(waiter)
        self._file(command, entry, ready)
        return self._drain(ready)

    def _deliver(self, command: Command, entry: HistoryEntry) -> None:
        entry.bucket.delivered |= 1 << entry.index
        self.delivered_order.append(command.command_id)
        self._execute(command)

    def _drain(self, ready: List[_Waiter]) -> List[Command]:
        """Deliver ``ready`` and, round by round, everything that unblocks.

        A round delivers what was deliverable when it started, in timestamp
        order so conflicting commands follow the agreed order (non-conflicting
        ties are broken deterministically).  A command unblocked in mid-round
        waits for the next round even if its timestamp is smaller: the order
        a rescan of all pending commands per round would give, found by
        looking only under the bits just delivered.
        """
        delivered_now: List[Command] = []
        while ready:
            ready.sort(key=_ROUND_ORDER)
            unblocked: List[_Waiter] = []
            for _, _, command, entry in ready:
                # Queued twice when a list BREAKLOOP had released it from is
                # popped while it is already waiting for its turn.
                if self._pending.pop(command.command_id, None) is None:
                    continue
                self._deliver(command, entry)
                delivered_now.append(command)
                for waiter in (entry.bucket.waiters or {}).pop(entry.index, ()):
                    if self._is_ready(waiter[3]):
                        unblocked.append(waiter)
            ready = unblocked
        return delivered_now

    def retry_pending(self) -> List[Command]:
        """Rebuild the blocker index from the history and deliver what is ready.

        The one cold path, and the only walk over every pending command: for a
        caller that changed a pending entry's mask or status behind this
        class's back.  Nothing in ``src/`` does, so nothing in ``src/`` calls it.
        """
        for bucket in self._history._by_key.values():
            bucket.waiters = None
        ready: List[_Waiter] = []
        for command_id, command in self._pending.items():
            entry = self._history.get(command_id)
            if entry is not None and entry.status is CommandStatus.STABLE:
                self._file(command, entry, ready)
        return self._drain(ready)


class HistoryCompactor:
    """Cluster-level garbage collection of histories (opt-in).

    Watches every replica's ``delivered_order`` through a cursor; once a
    command has been delivered by all replicas it is removed from each
    replica's :class:`~repro.core.history.CommandHistory` via the (previously
    unused) ``remove`` path.  Removal at a replica is deferred while any
    proposal is parked on the command's key there, so the incremental wait
    bookkeeping never sees an entry vanish from under it.

    Collection changes subsequent predecessor sets (collected commands no
    longer appear), which is safe — a command delivered everywhere is ordered
    before anything proposed later at every replica — but it does change
    message bytes relative to a non-collected run.  It is therefore *off by
    default* and only enabled explicitly (``--history-gc`` on long overload
    runs), never for figure reproduction.
    """

    def __init__(self, replicas: Sequence[object], set_timer: Callable,
                 interval_ms: float) -> None:
        if interval_ms <= 0:
            # A zero interval would re-arm the timer at the same virtual
            # instant forever and the simulation would never advance.
            raise ValueError(f"history GC interval must be > 0 ms, got {interval_ms}")
        self._replicas = [r for r in replicas
                          if hasattr(r, "history") and hasattr(r, "delivery")]
        self._set_timer = set_timer
        self.interval_ms = interval_ms
        self._cursors = [0] * len(self._replicas)
        self._seen: Dict[CommandId, int] = {}
        self._deferred: List[CommandId] = []
        self.commands_removed = 0

    def start(self) -> None:
        """Arm the periodic collection timer."""
        self._set_timer(self.interval_ms, self._tick)

    def _tick(self) -> None:
        self.collect()
        self._set_timer(self.interval_ms, self._tick)

    def collect(self) -> int:
        """Run one collection pass; returns how many commands were removed."""
        full = len(self._replicas)
        if full == 0:
            return 0
        ready: List[CommandId] = self._deferred
        self._deferred = []
        seen = self._seen
        for i, replica in enumerate(self._replicas):
            order = replica.delivery.delivered_order
            cursor = min(self._cursors[i], len(order))
            for command_id in order[cursor:]:
                count = seen.get(command_id, 0) + 1
                if count == full:
                    seen.pop(command_id, None)
                    ready.append(command_id)
                else:
                    seen[command_id] = count
            self._cursors[i] = len(order)
        removed = 0
        for command_id in ready:
            if self._remove_everywhere(command_id):
                removed += 1
            else:
                self._deferred.append(command_id)
        self.commands_removed += removed
        return removed

    def _remove_everywhere(self, command_id: CommandId) -> bool:
        """Remove one command's entry at every replica, or defer entirely."""
        entries = []
        for replica in self._replicas:
            entry = replica.history.get(command_id)
            if entry is None:
                continue
            wait_manager = getattr(replica, "wait_manager", None)
            if wait_manager is not None and wait_manager.has_parked(entry.command.key):
                return False
            entries.append((replica, entry))
        for replica, _ in entries:
            replica.history.remove(command_id)
        return True
