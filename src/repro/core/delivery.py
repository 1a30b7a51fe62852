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
is handed the STABLE entry the replica just wrote.

The delivered set is closed under predecessors (a command is delivered only
once its mask is inside it, and masks of stable entries only lose bits), so
BREAKLOOP has nothing to reconcile between a newly stable command and a
predecessor delivered earlier on its key; it walks the rest of the mask —
what is still undecided or undelivered — not the key's whole delivered past
(:func:`repro.core.invariants.check_delivered_closed` checks the premise).

A command collected from the history (:mod:`repro.core.collection`) keeps
its bit in ``bucket.delivered``, so a mask naming it still finds it delivered.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Set, Tuple

from repro.consensus.command import Command, CommandId
from repro.core.history import CommandHistory, CommandStatus, HistoryEntry


#: A pending command as filed and queued: ``(stamp, filing sequence, command,
#: entry)``.  A round delivers in timestamp order; equal timestamps (which the
#: protocol never issues) fall back to the order the commands became pending in.
_Waiter = Tuple[int, int, Command, HistoryEntry]
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
        my_stamp = entry.stamp
        mask = entry.pred_mask
        remove = 0
        remaining = mask & ~(bucket.delivered & bucket.prefix_mask(my_stamp, writes_only=False))
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            pred_entry = get(id_of[low.bit_length() - 1])
            if pred_entry is None or pred_entry.status is not CommandStatus.STABLE:
                continue
            if pred_entry.stamp < my_stamp:
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
        waiter = (entry.stamp, self._filed, command, entry)
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

    def on_stable(self, command: Command, entry: HistoryEntry) -> List[Command]:
        """Register a newly stable command and deliver everything now possible.

        ``entry`` is the command's entry, which the caller has just written
        as STABLE.  Returns the list of commands delivered as a result (in
        order).
        """
        command_id = command.command_id
        delivered = entry.bucket.delivered
        if (delivered >> entry.index) & 1:
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
        my_stamp = entry.stamp
        ready: List[_Waiter] = []
        for waiter in (entry.bucket.waiters or {}).get(entry.index, ()):
            other = waiter[3]
            if my_stamp < waiter[0]:
                entry.pred_mask &= ~(1 << other.index)
            else:
                other.pred_mask &= ~bit
                if self._is_ready(other):
                    ready.append(waiter)
        self._file(command, entry, ready)
        return self._drain(ready)

    def _deliver(self, command: Command, entry: HistoryEntry) -> None:
        """Mark the command delivered and execute it.  The delivered bit is also
        CAESAR's executed bit, so one already set means a second execution."""
        bucket, bit = entry.bucket, 1 << entry.index
        if bucket.delivered & bit:
            raise ValueError(f"command {command.command_id} executed twice")
        bucket.delivered |= bit
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
