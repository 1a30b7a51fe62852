"""The per-node command history ``H_i`` (Section V-A of the paper).

``H_i`` maps every command a node has heard about to a tuple
``<c, T, Pred, status, ballot, forced>``.  Two representation choices make
the decision path cheap:

* **Interned ids, per key.**  Commands conflict only on the same key, so a
  predecessor set only names commands of its command's key.  Each key's
  bucket interns the ids seen on it to dense indices of its own, and
  predecessor sets are Python int bitmasks in that space (bit ``k`` set =
  the key's ``k``-th command is a predecessor): as wide as the key's
  history, not the node's.  Set union/membership/difference on the hot path
  are single C-level operations on small ints, and UPDATE stores a mask
  without copying.  Messages still carry ``FrozenSet[CommandId]``, translated
  with :meth:`CommandHistory.mask_from_ids` / :meth:`CommandHistory.ids_from_mask`.
* **First-key binding.**  An id is bound to the key of the first message
  naming it; one naming it on another key is refused (``KeyBindingError``)
  before any entry, mask or delivered bit changes, so a bad ``Stable`` cannot
  leave a phantom predecessor in one bucket that blocks delivery forever.
* **Timestamp-ordered per-key buckets.**  The per-key index keeps entries
  sorted by timestamp, so the predecessor computation takes the ``<
  timestamp`` prefix by binary search (as a precomputed bucket mask minus a
  usually-empty suffix) and the wait condition scans only the ``> timestamp``
  suffix.  An entry holds its timestamp as one int, its *stamp* ``counter <<
  32 | node_id``: ordered as the timestamps, compared and bisected without a
  tuple or a method call, and the key the bucket is sorted by (the stamp of a
  :class:`~repro.consensus.timestamps.LogicalTimestamp` ``t`` is ``t.counter
  << 32 | t.node_id``, which :meth:`CommandHistory.update` range-checks).
* **Bucket-relative translation.**  A predecessor set is its key's bucket
  less a handful of ids (the command itself, whatever is proposed later or
  not yet seen here), and on the simulator the history is not collected
  by default, so translating one id at a time costs the length of the
  history on every message.  The translations start from all the key has interned — the
  ``index_of`` dict itself, whose stored hashes the C-level set operations
  reuse (a ``.keys()`` view would hash every id again), and ``(1 <<
  len(id_of)) - 1`` — and loop in Python over only the ids that differ.
  When the set is smaller than what the key would shed (reads among writes,
  a recovery whitelist), the per-id loop runs — the same result either way.

Each fact about a command is kept once: a :class:`HistoryEntry` carries its
stamp, index and bucket (whoever holds it passes it on as ``entry``), and
``CommandHistory._bucket_of`` binds only the ids that have no entry.  The one
fact held twice is an id's index, on its entry and in its key's ``index_of``:
that dict's stored hashes are what the translations' set operations reuse,
where a list of the key's ids would be hashed again on every message.

A key's indices are *never* recycled, and an emptied bucket is kept: an id
:meth:`CommandHistory.remove` collects goes back into ``_bucket_of``, so a
late retransmission naming it resolves to the same bit and the key's
delivered set stays valid.  Ids a translation sees for the first time are
interned in the iteration order of the collection it was handed, whichever
way it goes about it, so the same messages in the same order give the same
indices — on one key, first-seen order.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort_right
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId, KeyBindingError
from repro.consensus.timestamps import LogicalTimestamp, TimestampRangeError

#: Shared empty frozenset returned whenever a mask materializes to nothing.
_EMPTY_IDS: FrozenSet[CommandId] = frozenset()
#: What a bucket's entries are bisected by.
_STAMP = attrgetter("stamp")


class CommandStatus(enum.Enum):
    """Lifecycle of a command inside ``H_i``."""

    FAST_PENDING = "fast-pending"
    SLOW_PENDING = "slow-pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    STABLE = "stable"

    @property
    def is_finalizing(self) -> bool:
        """Statuses that release the wait condition (accepted or stable)."""
        return self in (CommandStatus.ACCEPTED, CommandStatus.STABLE)

    @property
    def survived_proposal(self) -> bool:
        """Statuses beyond the (rejectable) proposal phases."""
        return self in (CommandStatus.SLOW_PENDING, CommandStatus.ACCEPTED, CommandStatus.STABLE)


class HistoryEntry:
    """One row of ``H_i``: the node's knowledge about a single command.

    ``pred_mask`` is the predecessor set as a bitmask over its key's
    interner, a plain attribute every reader and writer touches directly; the
    :attr:`predecessors` view decodes it to a ``frozenset`` of ids on every
    read, for cold-path readers such as recovery, catch-up supply and the
    invariant checks.  ``stamp`` is the timestamp, packed (module docstring);
    the :attr:`timestamp` view decodes it the same way.  Only
    :meth:`CommandHistory.update` writes ``stamp``: it re-files the entry.
    """

    __slots__ = ("command", "stamp", "status", "ballot", "forced",
                 "index", "bucket", "pred_mask")

    def __init__(self, command: Command, stamp: int,
                 pred_mask: int, status: CommandStatus, ballot: Ballot, forced: bool,
                 index: int, bucket: "_KeyBucket") -> None:
        self.command = command
        self.stamp = stamp
        self.status = status
        self.ballot = ballot
        self.forced = forced
        #: This command's index on its key (``1 << index`` is its bit).
        self.index = index
        #: The bucket of the command's key, where this entry is filed.
        self.bucket = bucket
        self.pred_mask = pred_mask

    @property
    def command_id(self) -> CommandId:
        """Id of the command this entry describes."""
        return self.command.command_id

    @property
    def predecessors(self) -> FrozenSet[CommandId]:
        """The predecessor set as command ids (decoded from the mask on each read)."""
        mask, id_of = self.pred_mask, self.bucket.id_of
        return frozenset(id_of[i] for i in range(mask.bit_length()) if mask >> i & 1)

    @property
    def timestamp(self) -> LogicalTimestamp:
        """The timestamp (decoded from the stamp on each read)."""
        stamp = self.stamp
        return LogicalTimestamp(stamp >> 32, stamp & 0xFFFFFFFF)


class _KeyBucket:
    """One key: its interner, and its entries sorted by timestamp.

    The interner ``index_of`` / ``id_of`` holds every id bound to the key,
    with an entry or not.  ``entries`` are sorted by their stamps; equal
    stamps, which the protocol never issues, stay in the order they were
    filed in.  ``all_mask`` / ``write_mask`` are the bitmask of every entry /
    every *writing* entry — the predecessor computation takes the
    whole-bucket mask and strips the (usually tiny) ``>= timestamp`` suffix
    instead of scanning the prefix.  ``delivered`` / ``waiters`` are the
    delivery manager's (``waiters`` is ``None`` until its first filing).
    ``floor`` / ``write_floor`` are the highest stamp of every command / every
    write collected on the key (-1 before the first): the wait condition's
    stand-in for the NACK witnesses collection took away
    (:mod:`repro.core.collection`).
    """

    __slots__ = ("key", "entries", "all_mask", "write_mask",
                 "index_of", "id_of", "delivered", "waiters", "floor", "write_floor")

    def __init__(self, key: str) -> None:
        self.key = key
        self.entries: List[HistoryEntry] = []
        self.all_mask = 0
        self.write_mask = 0
        self.index_of: Dict[CommandId, int] = {}
        self.id_of: List[CommandId] = []
        self.delivered = 0
        self.waiters: Optional[Dict[int, list]] = None
        self.floor = -1
        self.write_floor = -1

    def insert(self, entry: HistoryEntry) -> None:
        insort_right(self.entries, entry, key=_STAMP)
        bit = 1 << entry.index
        self.all_mask |= bit
        if entry.command.is_write:
            self.write_mask |= bit

    def discard(self, entry: HistoryEntry) -> None:
        """Remove ``entry``, which is filed under its current stamp."""
        entries, stamp = self.entries, entry.stamp
        position = bisect_left(entries, stamp, key=_STAMP)
        # Equal stamps, which the protocol never issues, are told apart by identity.
        while position < len(entries) and entries[position].stamp == stamp:
            if entries[position] is entry:
                del entries[position]
                bit = 1 << entry.index
                self.all_mask &= ~bit
                self.write_mask &= ~bit
                return
            position += 1

    def suffix_start(self, stamp: int) -> int:
        """Index of the first entry with a stamp strictly greater than ``stamp``."""
        return bisect_right(self.entries, stamp, key=_STAMP)

    def prefix_mask(self, stamp: int, writes_only: bool) -> int:
        """Bitmask of entries with a stamp strictly smaller than ``stamp``.

        Computed as the whole-bucket mask minus the ``>= stamp`` suffix; at
        propose time new timestamps are usually the largest in the bucket, so
        the suffix loop rarely runs.
        """
        mask = self.write_mask if writes_only else self.all_mask
        entries = self.entries
        for i in range(bisect_left(entries, stamp, key=_STAMP), len(entries)):
            mask &= ~(1 << entries[i].index)
        return mask


class CommandHistory:
    """Mutable map from command id to :class:`HistoryEntry`, with interning.

    Besides the history proper, this object owns the ``CommandId -> bucket``
    binding: the key whose interner gave an id its index (module docstring).
    """

    def __init__(self) -> None:
        self._entries: Dict[CommandId, HistoryEntry] = {}
        self._by_key: Dict[str, _KeyBucket] = {}
        self._bucket_of: Dict[CommandId, _KeyBucket] = {}

    # ------------------------------------------------------------- interning

    def _new_bucket(self, key: str) -> _KeyBucket:
        bucket = self._by_key[key] = _KeyBucket(key)
        return bucket

    def _bind(self, command_id: CommandId, bucket: _KeyBucket) -> int:
        """Bind an unbound id to ``bucket`` at the key's next index (no entry yet)."""
        index = bucket.index_of[command_id] = len(bucket.id_of)
        bucket.id_of.append(command_id)
        self._bucket_of[command_id] = bucket
        return index

    def _mask_on(self, key: str, ids: Iterable[CommandId]) -> int:
        """Bitmask of ``ids`` on ``key``, binding the unbound ones in the order given.

        Every id is checked before any is bound (or the key's bucket made), so
        one bound to another key raises :class:`KeyBindingError` with nothing changed.
        """
        bucket = self._by_key.get(key)
        index_of = bucket.index_of if bucket is not None else {}
        bound = self._bucket_of
        mask = 0
        unseen = []
        for command_id in ids:
            index = index_of.get(command_id)
            if index is not None:
                mask |= 1 << index
            elif command_id in bound or command_id in self._entries:
                raise KeyBindingError(command_id, self.bucket_of(command_id).key, key)
            else:
                unseen.append(command_id)
        if unseen:
            bucket = bucket or self._new_bucket(key)
            for command_id in unseen:
                index = bucket.index_of.get(command_id)   # ``ids`` may repeat one
                mask |= 1 << (self._bind(command_id, bucket) if index is None else index)
        return mask

    def index_of(self, command_id: CommandId) -> Optional[int]:
        """Index of an already-bound id on its key, ``None`` if never seen."""
        bucket = self.bucket_of(command_id)
        return None if bucket is None else bucket.index_of[command_id]

    def bucket_of(self, command_id: CommandId) -> Optional[_KeyBucket]:
        """The bucket of the key an id is bound to, ``None`` if never seen."""
        entry = self._entries.get(command_id)
        return entry.bucket if entry is not None else self._bucket_of.get(command_id)

    def mask_from_ids(self, ids: Iterable[CommandId], key: str) -> int:
        """Bitmask on ``key`` for a collection of command ids (interning as needed).

        ``key`` is the key of the command whose predecessor set ``ids`` is.
        A set that is most of the ids the key has interned is translated as
        the all-interned mask less the few ids it lacks, plus the few it adds.
        Ids never seen are interned in the iteration order of ``ids`` either way.
        """
        if not ids:
            return 0
        bucket = self._by_key.get(key)
        # Worth it only when the key sheds fewer ids than the set holds,
        # which a set under half the key's ids cannot meet (and is not worth
        # a difference over all of them to find out).
        if (bucket is not None and isinstance(ids, (set, frozenset))
                and 2 * len(ids) > len(bucket.id_of)):
            index_of = bucket.index_of
            shed = set(index_of).difference(ids)
            if len(shed) < len(ids):
                mask = (1 << len(index_of)) - 1
                for command_id in shed:
                    mask &= ~(1 << index_of[command_id])
                extra = ids.difference(index_of)
                if len(extra) > 1:
                    # Index assignment follows the order ``ids`` iterates in.
                    extra = [command_id for command_id in ids if command_id in extra]
                return (mask | self._mask_on(key, extra)) if extra else mask
        return self._mask_on(key, ids)

    def ids_from_mask(self, mask: int, key: str) -> FrozenSet[CommandId]:
        """The command ids whose bits are set in ``mask``, a bitmask on ``key``.

        A mask that is most of the all-interned mask is the key's ids less the
        few it lacks.
        """
        if not mask:
            return _EMPTY_IDS
        bucket = self._by_key[key]
        shed = ((1 << len(bucket.id_of)) - 1) & ~mask
        if shed.bit_count() < mask.bit_count():
            ids = frozenset(bucket.index_of)
            return ids.difference(self.iter_mask(shed, key)) if shed else ids
        id_of = bucket.id_of
        ids = []
        while mask:
            low = mask & -mask
            ids.append(id_of[low.bit_length() - 1])
            mask ^= low
        return frozenset(ids)

    def iter_mask(self, mask: int, key: str) -> Iterator[CommandId]:
        """Iterate the command ids whose bits are set in ``mask``, a bitmask on ``key``."""
        id_of = self._by_key[key].id_of if mask else ()
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
        """The timestamp-sorted bucket for ``key`` (``None`` before an id is bound to it)."""
        return self._by_key.get(key)

    def update(self, command: Command, timestamp: LogicalTimestamp, predecessors: int,
               status: CommandStatus, ballot: Ballot, entry: Optional[HistoryEntry],
               forced: bool = False) -> HistoryEntry:
        """Insert or update the entry for ``command`` (the UPDATE of Section V-A).

        ``predecessors`` is a bitmask on the command's key, stored as-is (no
        copy).  ``entry`` is what :meth:`get` returned to a caller that has
        written nothing since (``None`` for a command without an entry).  An
        existing entry is mutated in place rather than replaced, so
        concurrent holders of the entry (e.g. the delivery manager's loop
        breaking) always observe the node's latest knowledge.  An id bound to
        another key, or a node id past the 32 bits of a sort key, raises first.
        """
        command_id, key = command.command_id, command.key
        if timestamp.node_id >> 32:
            raise TimestampRangeError(f"timestamp {timestamp} has a node id outside 0 .. 2**32 - 1")
        stamp = timestamp.counter << 32 | timestamp.node_id
        bucket = entry.bucket if entry is not None else self._bucket_of.get(command_id)
        if bucket is not None and bucket.key != key:
            raise KeyBindingError(command_id, bucket.key, key)
        if bucket is None:
            bucket = self._by_key.get(key) or self._new_bucket(key)
        if entry is None:
            index_of = bucket.index_of
            index = index_of.get(command_id)
            if index is None:
                # A brand-new id is interned straight onto its entry.
                index = index_of[command_id] = len(bucket.id_of)
                bucket.id_of.append(command_id)
            else:
                del self._bucket_of[command_id]   # bound through its entry from now on
            entry = HistoryEntry(command, stamp, predecessors, status, ballot, forced,
                                 index, bucket)
            self._entries[command_id] = entry
            bucket.insert(entry)
        else:
            if entry.stamp != stamp:
                bucket.discard(entry)
                entry.stamp = stamp
                bucket.insert(entry)
            entry.command = command
            entry.pred_mask = predecessors
            entry.status = status
            entry.ballot = ballot
            entry.forced = forced
        return entry

    def remove(self, command_id: CommandId) -> None:
        """Forget a command (history collection: every replica has delivered it).

        The bucket and its interner are kept, emptied or not, and the id is
        bound to it in ``_bucket_of``, so its bit stays valid in any surviving
        bitmask (the key's delivered set, other entries' predecessors).
        """
        entry = self._entries.pop(command_id, None)
        if entry is not None:
            entry.bucket.discard(entry)
            self._bucket_of[command_id] = entry.bucket

    def entries(self) -> Iterator[HistoryEntry]:
        """Iterate over every entry (order unspecified)."""
        return iter(self._entries.values())

    def stable_entries(self) -> Iterator[HistoryEntry]:
        """Entries currently marked stable."""
        for entry in self._entries.values():
            if entry.status is CommandStatus.STABLE:
                yield entry
