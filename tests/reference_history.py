"""The decision-path state as it was before each key got its own interner.

The parent commit's ``_KeyBucket``, ``CommandHistory`` (one node-wide
``CommandId -> index`` interner that never recycles an index),
``DeliveryManager`` (one node-wide delivered mask and blocker index),
``compute_predecessor_mask`` and ``WaitManager``, copied verbatim: the
executable specification the per-key design is compared against, at the
level of command ids (``tests/test_caesar_differential.py``,
``tests/test_core_bitset_differential.py``,
``tests/test_delivery_differential.py``).  ``HistoryEntry`` is the one the
design it replaced carried (a reference to its history, and a cached
materialization of its predecessor ids), copied too, so the reference never
runs the class under test.  The status enum, the ``LOOK_UP`` sentinel and
``_ParkedProposal`` did not change and are imported.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import LOOK_UP, CommandStatus
from repro.core.predecessors import _ParkedProposal

#: Shared empty frozenset returned whenever a mask materializes to nothing.
_EMPTY_IDS: FrozenSet[CommandId] = frozenset()


class HistoryEntry:
    """One row of ``H_i``: the node's knowledge about a single command.

    ``pred_mask`` is the predecessor set as a bitmask over its key's
    interner, a plain attribute every reader and writer touches directly; the
    :attr:`predecessors` view materializes it to a ``frozenset`` of ids on
    demand (cached beside the mask it was built from) for cold-path readers
    such as recovery, catch-up supply and the invariant checks.
    """

    __slots__ = ("command", "timestamp", "status", "ballot", "forced",
                 "index", "bucket", "pred_mask", "_history", "_pred_ids")

    def __init__(self, command: Command, timestamp: LogicalTimestamp,
                 pred_mask: int, status: CommandStatus, ballot: Ballot, forced: bool,
                 index: int, bucket: "_KeyBucket", history: "CommandHistory") -> None:
        self.command = command
        self.timestamp = timestamp
        self.status = status
        self.ballot = ballot
        self.forced = forced
        #: This command's index on its key (``1 << index`` is its bit).
        self.index = index
        #: The bucket of the command's key, where this entry is filed.
        self.bucket = bucket
        self.pred_mask = pred_mask
        self._history = history
        #: ``(mask, ids)`` of the last materialization, ``None`` before the first.
        self._pred_ids: Optional[Tuple[int, FrozenSet[CommandId]]] = None

    @property
    def command_id(self) -> CommandId:
        """Id of the command this entry describes."""
        return self.command.command_id

    @property
    def predecessors(self) -> FrozenSet[CommandId]:
        """The predecessor set as command ids (cached until the mask changes)."""
        mask = self.pred_mask
        cached = self._pred_ids
        if cached is None or cached[0] != mask:
            cached = self._pred_ids = (
                mask, self._history.ids_from_mask(mask, self.command.key))
        return cached[1]

    def ts_key(self) -> Tuple[int, int]:
        """Sort key equivalent to the timestamp's total order."""
        timestamp = self.timestamp
        return (timestamp.counter, timestamp.node_id)


class _KeyBucket:
    """Entries for one key, kept sorted by timestamp.

    ``keys`` and ``entries`` are parallel lists; ``keys[i]`` is
    ``(counter, node_id, index)`` for ``entries[i]`` (the index component
    makes keys unique, so removal never needs an equality scan).  ``all_mask``
    / ``write_mask`` are the bitmask of every entry / every *writing* entry in
    the bucket — the predecessor computation takes the whole-bucket mask and
    strips the (usually tiny) ``>= timestamp`` suffix instead of scanning the
    prefix.  ``ids`` is ``all_mask`` as command ids: what the id⇄mask
    translations of a predecessor set on this key start from.
    """

    __slots__ = ("keys", "entries", "all_mask", "write_mask", "ids")

    def __init__(self) -> None:
        self.keys: List[Tuple[int, int, int]] = []
        self.entries: List[HistoryEntry] = []
        self.all_mask = 0
        self.write_mask = 0
        self.ids: Set[CommandId] = set()

    def insert(self, entry: HistoryEntry) -> None:
        timestamp = entry.timestamp
        key = (timestamp.counter, timestamp.node_id, entry.index)
        position = bisect_left(self.keys, key)
        self.keys.insert(position, key)
        self.entries.insert(position, entry)
        bit = 1 << entry.index
        self.all_mask |= bit
        self.ids.add(entry.command.command_id)
        if entry.command.is_write:
            self.write_mask |= bit

    def discard(self, entry: HistoryEntry, timestamp: LogicalTimestamp) -> None:
        """Remove ``entry``, which is currently filed under ``timestamp``."""
        key = (timestamp.counter, timestamp.node_id, entry.index)
        position = bisect_left(self.keys, key)
        if position < len(self.keys) and self.keys[position] == key:
            del self.keys[position]
            del self.entries[position]
            bit = 1 << entry.index
            self.all_mask &= ~bit
            self.write_mask &= ~bit
            self.ids.discard(entry.command.command_id)

    def suffix_start(self, timestamp: LogicalTimestamp) -> int:
        """Index of the first entry with a timestamp strictly greater."""
        return bisect_right(self.keys, (timestamp.counter, timestamp.node_id, 1 << 62))

    def prefix_mask(self, timestamp: LogicalTimestamp, writes_only: bool) -> int:
        """Bitmask of entries with a timestamp strictly smaller.

        Computed as the whole-bucket mask minus the ``>= timestamp`` suffix;
        at propose time new timestamps are usually the largest in the bucket,
        so the suffix loop rarely runs.
        """
        mask = self.write_mask if writes_only else self.all_mask
        keys = self.keys
        position = bisect_left(keys, (timestamp.counter, timestamp.node_id))
        if position < len(keys):
            entries = self.entries
            for i in range(position, len(keys)):
                mask &= ~(1 << entries[i].index)
        return mask


class CommandHistory:
    """Mutable map from command id to :class:`HistoryEntry`, with interning.

    Besides the history proper, this object owns the node's
    ``CommandId -> dense int`` interner used by the wait condition and the
    delivery manager, so every bitmask on one node draws from the same index
    space.
    """

    def __init__(self) -> None:
        self._entries: Dict[CommandId, HistoryEntry] = {}
        self._by_key: Dict[str, _KeyBucket] = {}
        self._index_of: Dict[CommandId, int] = {}
        self._id_of: List[CommandId] = []
        self._entry_by_index: List[Optional[HistoryEntry]] = []

    # ------------------------------------------------------------- interning

    def intern(self, command_id: CommandId) -> int:
        """Dense index for a command id, assigning one on first sight."""
        index = self._index_of.get(command_id)
        if index is None:
            index = len(self._id_of)
            self._index_of[command_id] = index
            self._id_of.append(command_id)
            self._entry_by_index.append(None)
        return index

    def index_of(self, command_id: CommandId) -> Optional[int]:
        """Index of an already-interned id, ``None`` if never seen."""
        return self._index_of.get(command_id)

    def entry_at(self, index: int) -> Optional[HistoryEntry]:
        """The live entry for an interned index, ``None`` when absent."""
        return self._entry_by_index[index]

    def mask_from_ids(self, ids: Iterable[CommandId], key: Optional[str] = None) -> int:
        """Bitmask for a collection of command ids (interning as needed).

        With ``key`` — the key of the command whose predecessor set ``ids``
        is — a set that is most of that key's bucket is translated as the
        bucket's mask less the few ids it lacks, plus the few it adds.  Ids
        never seen are interned in the iteration order of ``ids`` either way.
        """
        bucket = self._by_key.get(key)
        # Worth it only when the bucket sheds fewer ids than the set holds,
        # which a set under half the bucket cannot meet (and is not worth a
        # difference over the whole bucket to find out).
        if (bucket is not None and isinstance(ids, (set, frozenset))
                and 2 * len(ids) > len(bucket.ids)):
            bucket_ids = bucket.ids
            shed = bucket_ids - ids
            if len(shed) < len(ids):
                index_of = self._index_of
                mask = bucket.all_mask
                for command_id in shed:
                    mask &= ~(1 << index_of[command_id])
                extra = ids - bucket_ids
                if len(extra) > 1:
                    # Index assignment follows the order ``ids`` iterates in.
                    extra = [command_id for command_id in ids if command_id in extra]
                for command_id in extra:
                    mask |= 1 << self.intern(command_id)
                return mask
        mask = 0
        for command_id in ids:
            mask |= 1 << self.intern(command_id)
        return mask

    def ids_from_mask(self, mask: int, key: Optional[str] = None) -> FrozenSet[CommandId]:
        """The command ids whose bits are set in ``mask``.

        With ``key`` (as for :meth:`mask_from_ids`) a mask that is most of the
        bucket's is the bucket's id set less the few it lacks, plus the few
        it adds.
        """
        if not mask:
            return _EMPTY_IDS
        bucket = self._by_key.get(key)
        if bucket is not None:
            shed = bucket.all_mask & ~mask
            if shed.bit_count() < mask.bit_count():
                ids = bucket.ids
                if shed:
                    ids = ids.difference(self.iter_mask(shed))
                extra = mask & ~bucket.all_mask
                if extra:
                    ids = ids.union(self.iter_mask(extra))
                return frozenset(ids)
        id_of = self._id_of
        ids = []
        while mask:
            low = mask & -mask
            ids.append(id_of[low.bit_length() - 1])
            mask ^= low
        return frozenset(ids)

    def iter_mask(self, mask: int) -> Iterator[CommandId]:
        """Iterate the command ids whose bits are set in ``mask``."""
        id_of = self._id_of
        while mask:
            low = mask & -mask
            yield id_of[low.bit_length() - 1]
            mask ^= low

    # ------------------------------------------------------------ collection

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, command_id: CommandId) -> bool:
        return command_id in self._entries

    def get(self, command_id: CommandId) -> Optional[HistoryEntry]:
        """The entry for a command, or ``None`` if the node has never seen it."""
        return self._entries.get(command_id)

    def bucket(self, key: str) -> Optional[_KeyBucket]:
        """The timestamp-sorted bucket for ``key`` (``None`` when empty)."""
        return self._by_key.get(key)

    def update(self, command: Command, timestamp: LogicalTimestamp,
               predecessors: Union[int, Iterable[CommandId]], status: CommandStatus,
               ballot: Ballot, forced: bool = False,
               entry: Optional[HistoryEntry] = LOOK_UP) -> HistoryEntry:
        """Insert or update the entry for ``command`` (the UPDATE of Section V-A).

        ``predecessors`` is either an interned bitmask (the hot path — stored
        as-is, no copy) or any iterable of command ids (interned on the way
        in).  An existing entry is mutated in place rather than replaced, so
        concurrent holders of the entry (e.g. the delivery manager's loop
        breaking) always observe the node's latest knowledge.  ``entry`` is
        what :meth:`get` returned to a caller that has written nothing since.
        """
        mask = predecessors if isinstance(predecessors, int) else self.mask_from_ids(predecessors)
        if entry is LOOK_UP:
            entry = self._entries.get(command.command_id)
        if entry is None:
            index = self.intern(command.command_id)
            bucket = self._by_key.get(command.key)
            if bucket is None:
                bucket = self._by_key[command.key] = _KeyBucket()
            entry = HistoryEntry(command=command, timestamp=timestamp,
                                 pred_mask=mask, status=status, ballot=ballot,
                                 forced=forced, index=index, bucket=bucket, history=self)
            self._entries[command.command_id] = entry
            self._entry_by_index[index] = entry
            bucket.insert(entry)
        else:
            if entry.timestamp != timestamp:
                bucket = entry.bucket
                bucket.discard(entry, entry.timestamp)
                entry.timestamp = timestamp
                bucket.insert(entry)
            entry.command = command
            entry.pred_mask = mask
            entry.status = status
            entry.ballot = ballot
            entry.forced = forced
        return entry

    def remove(self, command_id: CommandId) -> None:
        """Forget a command (garbage collection once stable everywhere).

        The interner mapping is kept so the command's bit stays valid in any
        surviving bitmask (delivered sets, other entries' predecessors).
        """
        entry = self._entries.pop(command_id, None)
        if entry is not None:
            self._entry_by_index[entry.index] = None
            bucket = self._by_key.get(entry.command.key)
            if bucket is not None:
                bucket.discard(entry, entry.timestamp)
                if not bucket.keys:
                    del self._by_key[entry.command.key]

    def entries(self) -> Iterator[HistoryEntry]:
        """Iterate over every entry (order unspecified)."""
        return iter(self._entries.values())

    def conflicting_with(self, command: Command) -> Iterator[HistoryEntry]:
        """Entries for commands that conflict with ``command`` (excluding itself).

        Yields in timestamp order (the bucket order); callers that care about
        order get it for free, callers that do not are unaffected.
        """
        bucket = self._by_key.get(command.key)
        if bucket is None:
            return
        command_id = command.command_id
        for entry in bucket.entries:
            if entry.command_id == command_id:
                continue
            if entry.command.conflicts_with(command):
                yield entry

    def predecessors_of(self, command_id: CommandId) -> FrozenSet[CommandId]:
        """The GETPREDECESSORS accessor; empty set when the command is unknown.

        Returns the entry's cached immutable view — callers must not expect
        a private copy (none of them mutate it; the previous per-call
        ``set()`` copy existed only to protect against that).
        """
        entry = self._entries.get(command_id)
        if entry is None:
            return _EMPTY_IDS
        return entry.predecessors

    def status_of(self, command_id: CommandId) -> Optional[CommandStatus]:
        """Status of a command, or ``None`` if unknown."""
        entry = self._entries.get(command_id)
        return entry.status if entry is not None else None

    def stable_entries(self) -> Iterator[HistoryEntry]:
        """Entries currently marked stable."""
        for entry in self._entries.values():
            if entry.status is CommandStatus.STABLE:
                yield entry


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
        self._delivered_mask = 0
        self._pending: Dict[CommandId, Command] = {}
        #: Blocker index: interner index of an undelivered predecessor -> the
        #: pending commands that waited on it when they were filed.  BREAKLOOP
        #: may since have released one from that bit (and it may have been
        #: delivered), so readers re-test.  A list is popped when its blocker
        #: is delivered: the index is empty whenever ``_pending`` is.
        self._waiters: Dict[int, List[_Waiter]] = {}
        self._filed = 0
        self.delivered_order: List[CommandId] = []

    @property
    def delivered_count(self) -> int:
        """Number of commands executed by this replica so far."""
        return len(self.delivered_order)

    @property
    def delivered_mask(self) -> int:
        """The delivered set as an interned bitmask (read-only view)."""
        return self._delivered_mask

    def is_delivered(self, command_id: CommandId) -> bool:
        """Whether the command has been executed locally."""
        index = self._history.index_of(command_id)
        return index is not None and (self._delivered_mask >> index) & 1 == 1

    def pending_count(self) -> int:
        """Stable commands still waiting for their predecessors."""
        return len(self._pending)

    def missing_predecessors(self) -> Set[CommandId]:
        """Predecessors blocking pending commands that are not stable locally.

        These are the commands whose STABLE message this replica has not seen
        (lost, or decided while it was crashed/partitioned) — exactly what a
        catch-up request should ask peers for.  Predecessors that are stable
        locally but undelivered are excluded: delivery will reach them.

        Read off the blocker index: BREAKLOOP only ever releases the bit of a
        stable command, so every command filed under a blocker that is not
        stable is still waiting on it.
        """
        history = self._history
        missing = 0
        for index in self._waiters:
            entry = history.entry_at(index)
            if entry is None or entry.status is not CommandStatus.STABLE:
                missing |= 1 << index
        return set(history.iter_mask(missing))

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
        history = self._history
        my_bit = 1 << entry.index
        my_key = entry.ts_key()
        mask = entry.pred_mask
        remove = 0
        remaining = mask & ~(self._delivered_mask
                             & entry.bucket.prefix_mask(entry.timestamp, writes_only=False))
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            pred_entry = history.entry_at(low.bit_length() - 1)
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
        delivered = self._delivered_mask
        return entry.pred_mask & ~delivered == 0 and not (delivered >> entry.index) & 1

    def _file(self, command: Command, entry: HistoryEntry, ready: List[_Waiter]) -> None:
        """Queue a pending command in ``ready``, or file it under every blocker."""
        self._filed += 1
        waiter = (entry.ts_key(), self._filed, command, entry)
        blocked = entry.pred_mask & ~self._delivered_mask
        if not blocked:
            ready.append(waiter)
        while blocked:
            low = blocked & -blocked
            blocked ^= low
            self._waiters.setdefault(low.bit_length() - 1, []).append(waiter)

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
        # A collected command has no entry, but its bit is still delivered.
        index = entry.index if entry is not None else self._history.index_of(command_id)
        if index is not None and (self._delivered_mask >> index) & 1:
            return []
        if entry is None or entry.status is not CommandStatus.STABLE:
            self._pending[command_id] = command
            return []
        if not self._pending and entry.pred_mask & ~self._delivered_mask == 0:
            # Fast path for the overwhelmingly common case: nothing else is
            # waiting and every predecessor has already been delivered, so
            # the command can be executed without the loop-breaking or
            # ready-list machinery (which would reach the same conclusion).
            self._deliver(command, entry.index)
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
        for waiter in self._waiters.get(entry.index, ()):
            other = waiter[3]
            if my_key < waiter[0]:
                entry.pred_mask &= ~(1 << other.index)
            else:
                other.pred_mask &= ~bit
                if self._is_ready(other):
                    ready.append(waiter)
        self._file(command, entry, ready)
        return self._drain(ready)

    def _deliver(self, command: Command, index: int) -> None:
        self._delivered_mask |= 1 << index
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
                self._deliver(command, entry.index)
                delivered_now.append(command)
                for waiter in self._waiters.pop(entry.index, ()):
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
        self._waiters.clear()
        ready: List[_Waiter] = []
        for command_id, command in self._pending.items():
            entry = self._history.get(command_id)
            if entry is not None and entry.status is CommandStatus.STABLE:
                self._file(command, entry, ready)
        return self._drain(ready)


def compute_predecessor_mask(history: CommandHistory, command: Command,
                             timestamp: LogicalTimestamp,
                             whitelist_mask: Optional[int] = None,
                             entry: Optional[HistoryEntry] = LOOK_UP) -> int:
    """COMPUTEPREDECESSORS from Figure 3, as an interned bitmask.

    With no whitelist, the predecessors of ``command`` at ``timestamp`` are
    every conflicting command the node has seen with a smaller timestamp —
    the bucket's ``< timestamp`` prefix, taken by binary search.

    With a whitelist (only used during recovery of a possibly fast-decided
    command), a conflicting command is a predecessor if it is in the
    whitelist, or if it has progressed past the proposal phases
    (slow-pending / accepted / stable) with a smaller timestamp.  ``entry`` is
    the command's own entry when the caller holds it: only then is the command
    in the bucket, with a bit of its own to leave out.
    """
    if entry is LOOK_UP:
        entry = history.get(command.command_id)
    if entry is not None:
        bucket, self_bit = entry.bucket, 1 << entry.index
    else:
        bucket, self_bit = history.bucket(command.key), 0
        if bucket is None:
            return 0
    if whitelist_mask is None:
        mask = bucket.prefix_mask(timestamp, writes_only=not command.is_write)
        return mask & ~self_bit
    command_is_write = command.is_write
    mask = 0
    for entry in bucket.entries:
        if not (command_is_write or entry.command.is_write):
            continue
        bit = 1 << entry.index
        if bit & whitelist_mask:
            mask |= bit
        elif entry.status.survived_proposal and entry.timestamp < timestamp:
            mask |= bit
    return mask & ~self_bit


class WaitManager:
    """Implements WAIT (Figure 3, lines 4-8) without blocking threads.

    The manager is owned by a replica.  ``evaluate`` either returns the
    outcome or parks the proposal.  While anything is parked the replica
    notifies the manager of every history change: :meth:`notify_entry` (hot
    path, after a ``history.update``) reclassifies the single changed entry
    against each proposal parked on its key; :meth:`notify_change`
    (compatibility API) rebuilds every parked proposal's masks from the
    bucket.  Both resolve the proposals whose blocker mask emptied, in
    parking order: the callback receives ``(ok, waited_ms, *args)``, the OK/NACK
    outcome of WAIT and how long the proposal was parked (Figure 11(b)).
    """

    def __init__(self, history: CommandHistory, now: Callable[[], float],
                 enabled: bool = True) -> None:
        self._history = history
        self._now = now
        self._enabled = enabled
        self._parked_by_key: Dict[str, List[_ParkedProposal]] = {}
        #: Proposals parked now, on any key; at 0 the replica skips the notify calls.
        self.parked = 0
        self.total_waits = 0
        self.total_wait_ms = 0.0

    # ------------------------------------------------------------ predicates

    def _scan_masks(self, command: Command, timestamp: LogicalTimestamp,
                    self_bit: int) -> tuple:
        """One pass over the ``> timestamp`` bucket suffix: the blocker and
        NACK-witness masks.

        A conflicting command *blocks* when it has a greater timestamp, does
        not list ``command`` among its predecessors, and has not yet reached
        an accepted/stable status; candidates that have are *NACK witnesses*.
        The two partition the same candidate set, and the timestamp-sorted
        bucket means only entries past the binary-searched suffix start are
        ever examined.
        """
        bucket = self._history.bucket(command.key)
        if bucket is None:
            return 0, 0
        blocker_mask = 0
        witness_mask = 0
        command_is_write = command.is_write
        entries = bucket.entries
        for i in range(bucket.suffix_start(timestamp), len(entries)):
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
                 on_resolved: Callable[..., None], entry: Optional[HistoryEntry] = LOOK_UP,
                 args: tuple = ()) -> Optional[bool]:
        """Run WAIT for ``command`` proposed at ``timestamp``: answer now, or park it.

        Returns the OK/NACK outcome when WAIT terminates at once (``entry``, the
        command's history entry, spares the lookups when the caller holds it);
        ``None`` when the proposal was parked: ``on_resolved(ok, waited_ms, *args)``
        then runs once WAIT terminates, never from inside this call.
        """
        history = self._history
        if entry is LOOK_UP:
            entry = history.get(command.command_id)
        if entry is not None:
            bucket, self_bit = entry.bucket, 1 << entry.index
        else:
            bucket, self_bit = history.bucket(command.key), 1 << history.intern(command.command_id)
            if bucket is None:
                return True
        if bucket.keys[-1][:2] <= (timestamp.counter, timestamp.node_id):
            return True  # nothing on the key is later: the scan would find an empty suffix
        blocker_mask, witness_mask = self._scan_masks(command, timestamp, self_bit)
        if not blocker_mask:
            return not witness_mask
        if not self._enabled:
            # Ablation mode: a proposal that would have waited is rejected outright.
            return False
        parked = _ParkedProposal(command, self_bit, timestamp, on_resolved, self._now(),
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
        entry_counter = entry.timestamp.counter
        entry_node = entry.timestamp.node_id
        entry_is_write = entry.command.is_write
        pred_mask = entry.pred_mask
        finalizing = entry.status.is_finalizing
        resolved: Optional[List[_ParkedProposal]] = None
        for parked in parked_list:
            if parked.bit == bit:
                continue
            blocks = ((entry_is_write or parked.is_write)
                      and (entry_counter, entry_node) > (parked.ts_counter, parked.ts_node)
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
                parked.command, parked.timestamp, parked.bit)
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
            waited = now - parked.parked_at
            self.total_waits += 1
            self.total_wait_ms += waited
            parked.on_resolved(not parked.witness_mask, waited, *parked.args)

    def parked_count(self) -> int:
        """Number of proposals currently delayed by the wait condition (:attr:`parked`)."""
        return self.parked

    def has_parked(self, key: str) -> bool:
        """Whether any proposal is parked on ``key`` (used by the history GC)."""
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
