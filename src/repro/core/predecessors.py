"""Predecessor computation and the wait condition.

These are the two auxiliary functions of Figure 3 in the paper:

* :func:`compute_predecessor_mask` — the set of conflicting commands that
  must be ordered before a command proposed at a given timestamp, optionally
  constrained by a recovery whitelist.  Returns a bitmask on the command's
  key (see :mod:`repro.core.history`).
* :class:`WaitManager` — the WAIT function.  In the paper WAIT blocks the
  acceptor thread; here :meth:`WaitManager.evaluate` answers in the call when
  it can — OK with no scan when nothing on the key is later than the
  proposal, else from one pass over the later entries — and otherwise keeps a
  *parked* proposal, with the bitmask of the conflicting entries blocking it
  and of the accepted/stable *NACK witnesses*.
  :meth:`WaitManager.notify_entry` reclassifies exactly the entry that
  changed, so a history change costs O(parked-on-key) bit operations; when
  the blocker mask empties, the manager reports OK or NACK to the callback
  the replica supplied.

Neither looks a command up: both take the command's
:class:`~repro.core.history.HistoryEntry` (its index and bucket) from the
caller as ``entry``, the one the caller just read or wrote.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.consensus.command import Command, CommandId
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, HistoryEntry


def compute_predecessor_mask(history: CommandHistory, command: Command,
                             timestamp: LogicalTimestamp, entry: Optional[HistoryEntry],
                             whitelist_mask: Optional[int] = None) -> int:
    """COMPUTEPREDECESSORS from Figure 3, as a bitmask on the command's key.

    With no whitelist, the predecessors of ``command`` at ``timestamp`` are
    every conflicting command the node has seen with a smaller timestamp —
    the bucket's ``< timestamp`` prefix, taken by binary search.

    With a whitelist (only used during recovery of a possibly fast-decided
    command), a conflicting command is a predecessor if it is in the
    whitelist, or if it has progressed past the proposal phases
    (slow-pending / accepted / stable) with a smaller timestamp.  ``entry`` is
    the command's own entry, ``None`` when it has none yet: only with one is
    the command in the bucket, with a bit of its own to leave out.
    """
    if entry is not None:
        bucket, self_bit = entry.bucket, 1 << entry.index
    else:
        bucket, self_bit = history.bucket(command.key), 0
        if bucket is None:
            return 0
    stamp = timestamp.counter << 32 | timestamp.node_id
    if whitelist_mask is None:
        mask = bucket.prefix_mask(stamp, writes_only=not command.is_write)
        return mask & ~self_bit
    command_is_write = command.is_write
    mask = 0
    for entry in bucket.entries:
        if not (command_is_write or entry.command.is_write):
            continue
        bit = 1 << entry.index
        if bit & whitelist_mask:
            mask |= bit
        elif entry.status.survived_proposal and entry.stamp < stamp:
            mask |= bit
    return mask & ~self_bit


class _ParkedProposal:
    """A proposal whose reply is delayed by the wait condition."""

    __slots__ = ("command", "command_id", "is_write", "bit", "stamp",
                 "on_resolved", "args", "parked_at", "blocker_mask", "witness_mask")

    def __init__(self, command: Command, bit: int, stamp: int,
                 on_resolved: Callable[..., None], parked_at: float,
                 blocker_mask: int, witness_mask: int, args: tuple) -> None:
        self.command = command
        self.command_id = command.command_id
        self.is_write = command.is_write
        self.bit = bit
        self.stamp = stamp
        self.on_resolved = on_resolved
        self.args = args
        self.parked_at = parked_at
        self.blocker_mask = blocker_mask
        self.witness_mask = witness_mask


class WaitManager:
    """Implements WAIT (Figure 3, lines 4-8) without blocking threads.

    The manager is owned by a replica.  ``evaluate`` either returns the
    outcome or parks the proposal.  While anything is parked the replica
    notifies the manager of every history change: :meth:`notify_entry` (hot
    path, after a ``history.update``) reclassifies the single changed entry
    against each proposal parked on its key; :meth:`notify_change`
    (compatibility API) rebuilds every parked proposal's masks from the
    bucket.  Both resolve the proposals whose blocker mask emptied, in
    parking order: the callback receives ``(ok, *args)``, the OK/NACK outcome
    of WAIT.  How long each proposal was parked adds to :attr:`total_wait_ms`
    (Figure 11(b)).
    """

    def __init__(self, history: CommandHistory, now: Callable[[], float],
                 enabled: bool) -> None:
        self._history = history
        self._now = now
        self._enabled = enabled
        self._parked_by_key: Dict[str, List[_ParkedProposal]] = {}
        #: Proposals parked now, on any key; at 0 the replica skips the notify calls.
        self.parked = 0
        self.total_waits = 0
        self.total_wait_ms = 0.0

    # ------------------------------------------------------------ predicates

    def _scan_masks(self, command: Command, stamp: int, self_bit: int) -> tuple:
        """One pass over the bucket suffix past ``stamp`` (the proposal's
        timestamp, packed): the blocker and NACK-witness masks.

        A conflicting command *blocks* when it has a greater timestamp, does
        not list ``command`` among its predecessors, and has not yet reached
        an accepted/stable status; candidates that have are *NACK witnesses*.
        The two partition the same candidate set, and the timestamp-sorted
        bucket means only entries past the binary-searched suffix start are
        ever examined.  A collected conflicting command above ``timestamp``
        (the key's floor) was such a witness: ``command``'s own bit stands
        for it, which no entry ever clears.
        """
        bucket = self._history.bucket(command.key)
        if bucket is None:
            return 0, 0
        blocker_mask = 0
        command_is_write = command.is_write
        floor = bucket.floor if command_is_write else bucket.write_floor
        witness_mask = self_bit if floor > stamp else 0
        entries = bucket.entries
        for i in range(bucket.suffix_start(stamp), len(entries)):
            entry = entries[i]
            if not (command_is_write or entry.command.is_write):
                continue
            if entry.pred_mask & self_bit:
                continue
            bit = 1 << entry.index
            if bit == self_bit:
                continue
            if entry.status.is_finalizing:
                witness_mask |= bit
            else:
                blocker_mask |= bit
        return blocker_mask, witness_mask

    # -------------------------------------------------------------- main API

    def evaluate(self, command: Command, timestamp: LogicalTimestamp,
                 on_resolved: Callable[..., None], entry: HistoryEntry,
                 args: tuple) -> Optional[bool]:
        """Run WAIT for ``command`` proposed at ``timestamp``: answer now, or park it.

        ``entry`` is the command's history entry, which the caller has just
        written.  Returns the OK/NACK outcome when WAIT terminates at once;
        ``None`` when the proposal was parked: ``on_resolved(ok, *args)`` then
        runs once WAIT terminates, never from inside this call.
        """
        bucket, self_bit = entry.bucket, 1 << entry.index
        entries = bucket.entries
        stamp = timestamp.counter << 32 | timestamp.node_id
        if not entries or entries[-1].stamp <= stamp:
            # Nothing on the key is later: the scan would find an empty
            # suffix, and only a collected command above it is a witness.
            return bucket.floor <= stamp or (
                not command.is_write and bucket.write_floor <= stamp)
        blocker_mask, witness_mask = self._scan_masks(command, stamp, self_bit)
        if not blocker_mask:
            return not witness_mask
        if not self._enabled:
            # Ablation mode: a proposal that would have waited is rejected outright.
            return False
        parked = _ParkedProposal(command, self_bit, stamp, on_resolved, self._now(),
                                 blocker_mask, witness_mask, args)
        self._parked_by_key.setdefault(command.key, []).append(parked)
        self.parked += 1
        return None

    def notify_entry(self, entry: HistoryEntry) -> None:
        """Reclassify one changed entry against the proposals parked on its key.

        Called by the replica right after every ``history.update`` (and after
        a delivery) with the entry that changed — the incremental counterpart
        of :meth:`notify_change`.
        """
        parked_list = self._parked_by_key.get(entry.command.key)
        if not parked_list:
            return
        bit = 1 << entry.index
        entry_stamp = entry.stamp
        entry_is_write = entry.command.is_write
        pred_mask = entry.pred_mask
        finalizing = entry.status.is_finalizing
        resolved: Optional[List[_ParkedProposal]] = None
        for parked in parked_list:
            if parked.bit == bit:
                continue
            blocks = ((entry_is_write or parked.is_write)
                      and entry_stamp > parked.stamp
                      and not (pred_mask & parked.bit))
            if blocks:
                if finalizing:
                    parked.witness_mask |= bit
                    new_blockers = parked.blocker_mask & ~bit
                else:
                    parked.blocker_mask |= bit
                    parked.witness_mask &= ~bit
                    continue
            else:
                parked.witness_mask &= ~bit
                new_blockers = parked.blocker_mask & ~bit
            if new_blockers != parked.blocker_mask:
                parked.blocker_mask = new_blockers
                if not new_blockers:
                    if resolved is None:
                        resolved = []
                    resolved.append(parked)
        if resolved:
            self._finish(entry.command.key, parked_list, resolved)

    def notify_change(self, key: str) -> None:
        """Re-evaluate proposals parked on ``key`` after a history change.

        Compatibility API (tests and external callers): rebuilds each parked
        proposal's masks with a full suffix scan, which also resynchronizes
        the incremental state after arbitrary external history mutations.
        """
        parked_list = self._parked_by_key.get(key)
        if not parked_list:
            return
        resolved: Optional[List[_ParkedProposal]] = None
        for parked in parked_list:
            blocker_mask, witness_mask = self._scan_masks(
                parked.command, parked.stamp, parked.bit)
            parked.blocker_mask = blocker_mask
            parked.witness_mask = witness_mask
            if not blocker_mask:
                if resolved is None:
                    resolved = []
                resolved.append(parked)
        if resolved:
            self._finish(key, parked_list, resolved)

    def _finish(self, key: str, parked_list: List[_ParkedProposal],
                resolved: List[_ParkedProposal]) -> None:
        """Unpark ``resolved`` and fire their callbacks, in parking order.

        The parked map is updated *before* any callback runs: callbacks
        mutate the history and re-enter the notify path, and must observe a
        consistent registry.
        """
        if len(resolved) == len(parked_list):
            self._parked_by_key.pop(key, None)
        else:
            remaining = [p for p in parked_list if p.blocker_mask]
            self._parked_by_key[key] = remaining
        self.parked -= len(resolved)
        now = self._now()
        for parked in resolved:
            self.total_waits += 1
            self.total_wait_ms += now - parked.parked_at
            parked.on_resolved(not parked.witness_mask, *parked.args)

    def has_parked(self, key: str) -> bool:
        """Whether any proposal is parked on ``key`` (history collection waits)."""
        return key in self._parked_by_key

    def drop_command(self, command_id: CommandId, key: str) -> None:
        """Remove any parked proposal for a command (used on ballot preemption)."""
        parked_list = self._parked_by_key.get(key)
        if not parked_list:
            return
        remaining = [p for p in parked_list if p.command_id != command_id]
        if len(remaining) != len(parked_list):
            self.parked -= len(parked_list) - len(remaining)
            if remaining:
                self._parked_by_key[key] = remaining
            else:
                self._parked_by_key.pop(key, None)
