"""Differential test: blocker-indexed delivery vs the scan it replaced.

:class:`~repro.core.delivery.DeliveryManager` finds the commands a stable
event or a delivery can unblock through an index instead of rescanning every
pending command.  That is only an optimisation if *nothing observable*
changes: not the delivery order, not the loop-breaking edits left behind on
predecessor masks (recovery replies and catch-up supply read them), not what
a catch-up request would ask for.  The scan-based manager lives on here as
the reference (a test fixture, not package code), over the node-wide
interner of ``tests/reference_history.py``; the indexed one keeps its
delivered set and blocker index per key.  Hypothesis drives both through the
same arrivals of stable commands — random, deliberately cyclic predecessor
sets on each of a few keys, timestamps drawn from a range small enough to
clash, predecessors that are merely accepted or never arrive — and after
every event both must agree on everything, compared as command ids.

The scaling guards at the bottom pin *why* the index exists — the work one
stable event does must not depend on how many commands are pending — and why
BREAKLOOP restricts its walk: nor on how many predecessors are long delivered.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set

from hypothesis import example, given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.delivery import DeliveryManager
from repro.core.history import CommandHistory, CommandStatus, HistoryEntry
from tests.reference_history import CommandHistory as ReferenceHistory

BALLOT = Ballot.initial(0)

KEYS = ("alpha", "beta", "gamma")

#: Five commands per key: slot ``s`` is on ``KEYS[s % 3]``.
SLOTS = 15


class ScanDeliveryManager:
    """The scan-based ``DeliveryManager`` of commit d1ad494, verbatim: the executable spec.

    Every stable event walks the whole pending dict to re-reconcile, and every
    drain round walks it again for the ready set.

    Args:
        history: the replica's command history (shared, mutated by BREAKLOOP).
        execute: callback that applies a command to the state machine.
        on_delivered: optional hook invoked after each delivery (used by the
            replica to unblock waiting proposals and record metrics).
    """

    def __init__(self, history: CommandHistory, execute: Callable[[Command], None],
                 on_delivered: Optional[Callable[[Command], None]] = None) -> None:
        self._history = history
        self._execute = execute
        self._on_delivered = on_delivered
        self._delivered_mask = 0
        self._pending: Dict[CommandId, Command] = {}
        self.delivered_order: List[CommandId] = []

    @property
    def delivered_count(self) -> int:
        """Number of commands executed by this replica so far."""
        return len(self.delivered_order)

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
        """
        missing: Set[CommandId] = set()
        history = self._history
        for command_id in self._pending:
            entry = history.get(command_id)
            if entry is None:
                continue
            for pred in history.iter_mask(entry.pred_mask & ~self._delivered_mask):
                pred_entry = history.get(pred)
                if pred_entry is None or pred_entry.status is not CommandStatus.STABLE:
                    missing.add(pred)
        return missing

    # --------------------------------------------------------------- helpers

    def _break_loop(self, entry: HistoryEntry) -> None:
        """BREAKLOOP from Figure 3: reconcile mutual predecessor references.

        For the newly stable command ``c`` and every *stable* command ``c̄`` in
        its predecessor set: if ``c̄`` has a smaller final timestamp, ``c`` must
        not appear among ``c̄``'s predecessors; if ``c̄`` has a larger final
        timestamp, ``c̄`` must not appear among ``c``'s predecessors.
        """
        history = self._history
        my_bit = 1 << entry.index
        my_key = entry.ts_key()
        mask = entry.pred_mask
        remove = 0
        remaining = mask
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

    # -------------------------------------------------------------- main API

    def on_stable(self, command: Command) -> List[Command]:
        """Register a newly stable command and deliver everything now possible.

        Returns the list of commands delivered as a result (in order).
        """
        command_id = command.command_id
        history = self._history
        index = history.index_of(command_id)
        if index is not None and (self._delivered_mask >> index) & 1:
            return []
        entry = history.get(command_id)
        if not self._pending:
            # Fast path for the overwhelmingly common case: nothing else is
            # waiting and every predecessor has already been delivered, so
            # the command can be executed without the loop-breaking or
            # ready-list machinery (which would reach the same conclusion).
            if (entry is not None and entry.status is CommandStatus.STABLE
                    and entry.pred_mask & ~self._delivered_mask == 0):
                self._deliver(command, entry.index)
                return [command]
        self._pending[command_id] = command
        if entry is not None and entry.status is CommandStatus.STABLE:
            self._break_loop(entry)
            # The new command may also unblock older stable commands whose
            # predecessor sets reference it; exactly those pairs are
            # re-reconciled (every other pending pair is unchanged since the
            # stable event that last reconciled it).
            bit = 1 << entry.index
            my_key = entry.ts_key()
            for other_id in list(self._pending.keys()):
                if other_id == command_id:
                    continue
                other = history.get(other_id)
                if (other is None or other.status is not CommandStatus.STABLE
                        or not other.pred_mask & bit):
                    continue
                if my_key < other.ts_key():
                    entry.pred_mask &= ~(1 << other.index)
                else:
                    other.pred_mask &= ~bit
        return self._drain()

    def _deliver(self, command: Command, index: int) -> None:
        self._delivered_mask |= 1 << index
        self.delivered_order.append(command.command_id)
        self._execute(command)
        if self._on_delivered is not None:
            self._on_delivered(command)

    def _drain(self) -> List[Command]:
        """Deliver pending stable commands until no more are deliverable."""
        delivered_now: List[Command] = []
        history = self._history
        progress = True
        while progress:
            progress = False
            # Deliver in timestamp order so conflicting commands follow the
            # agreed order; non-conflicting ties are broken deterministically.
            ready: List[tuple] = []
            delivered_mask = self._delivered_mask
            for command_id, command in self._pending.items():
                entry = history.get(command_id)
                if entry is None:
                    continue
                if entry.pred_mask & ~delivered_mask == 0:
                    ready.append((entry.ts_key(), command_id, command, entry))
            ready.sort(key=itemgetter(0))
            for _, command_id, command, entry in ready:
                if command_id not in self._pending:
                    continue
                del self._pending[command_id]
                self._deliver(command, entry.index)
                delivered_now.append(command)
                progress = True
        return delivered_now

    def retry_pending(self) -> List[Command]:
        """Re-attempt delivery (used after external history mutations)."""
        return self._drain()


# ------------------------------------------------------------- differential


def command_for(slot: int) -> Command:
    return Command(command_id=(slot, 0), key=KEYS[slot % len(KEYS)], operation="put",
                   value=f"v{slot}", origin=0)


class Side:
    """One history + manager + execution log."""

    def __init__(self, manager_cls, history_cls) -> None:
        self.history = history_cls()
        self.executed: List[CommandId] = []
        self.manager = manager_cls(self.history, lambda c: self.executed.append(c.command_id))

    def observable(self) -> tuple:
        return (self.executed, self.manager.delivered_order, self.manager.pending_count(),
                self.manager.missing_predecessors(),
                {entry.command_id: sorted(entry.predecessors)
                 for entry in self.history.entries()},
                {command_for(slot).command_id for slot in range(SLOTS)
                 if self.manager.is_delivered(command_for(slot).command_id)})


#: One event: (stable?, slot, timestamp counter, timestamp node, predecessor
#: slots as a bitmask).  Counters 1-4 x nodes 0-1 over five slots per key make
#: equal timestamps routine; the mask may name any slot of the command's key
#: (a predecessor set names no other), so mutual and longer cycles are
#: routine too.
events_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(0, SLOTS - 1), st.integers(1, 4),
              st.integers(0, 1), st.integers(0, (1 << SLOTS) - 1)),
    min_size=1, max_size=40)


#: Two commands with one timestamp (w1 = slot 9, w2 = slot 12), each behind a
#: different blocker (slots 6 and 3), both blockers behind slot 0, all on key
#: alpha.  The blockers fall in one round in timestamp order, which unblocks
#: w2 *before* w1; the next round must still deliver w1 first, because it
#: became pending first.
TIE_ACROSS_BLOCKERS = [(True, 9, 4, 0, 1 << 6), (True, 12, 4, 0, 1 << 3),
                       (True, 3, 2, 0, 1 << 0), (True, 6, 3, 0, 1 << 0),
                       (True, 0, 1, 0, 0)]


#: BREAKLOOP skips the predecessors that are delivered *and* strictly
#: earlier; dropping the second qualifier is wrong on inputs the protocol
#: never produces and this test does.  Slot 3 is delivered at the very
#: timestamp at which slot 0 then becomes stable, listing it (and slot 6,
#: which never arrives, so BREAKLOOP runs): not earlier, so the scan takes it
#: out of slot 0's predecessors and leaves {6} where ``mask & ~delivered``
#: leaves {3, 6}.
DELIVERED_PREDECESSOR_NOT_EARLIER = [(False, 0, 1, 0, 0), (True, 3, 1, 0, 0),
                                     (True, 0, 1, 0, (1 << 3) | (1 << 6))]
#: The delivered predecessor (slot 3) has the *later* timestamp.  Slot 6
#: never arrives.  (A delivered predecessor in another key's bucket, the
#: other case BREAKLOOP's skip once had to get right, cannot be named: the
#: history refuses an id on a second key.)
DELIVERED_PREDECESSOR_LATER_SAME_KEY = [(True, 3, 4, 0, 0),
                                        (True, 0, 2, 0, (1 << 3) | (1 << 6))]


def buckets_with_waiters(history: CommandHistory) -> list:
    return [key for key, bucket in history._by_key.items() if bucket.waiters]


class TestIndexedDeliveryMatchesScan:
    @given(events_strategy)
    @example(TIE_ACROSS_BLOCKERS)
    @example(DELIVERED_PREDECESSOR_NOT_EARLIER)
    @example(DELIVERED_PREDECESSOR_LATER_SAME_KEY)
    @settings(max_examples=400, deadline=None)
    def test_same_deliveries_masks_and_gaps_after_every_event(self, events):
        indexed = Side(DeliveryManager, CommandHistory)
        scan = Side(ScanDeliveryManager, ReferenceHistory)
        for stable, slot, counter, node, pred_slots in events:
            command = command_for(slot)
            predecessors = {command_for(other).command_id for other in range(SLOTS)
                            if (pred_slots >> other) & 1 and other != slot
                            and other % len(KEYS) == slot % len(KEYS)}

            def announce(side: Side) -> Optional[List[CommandId]]:
                known = side.history.get(command.command_id)
                if known is None or known.status is not CommandStatus.STABLE:
                    # As the replica does: once STABLE, an entry is never
                    # updated again (a repeat only re-announces it).
                    known = side.history.update(
                        command, LogicalTimestamp(counter, node), predecessors,
                        CommandStatus.STABLE if stable else CommandStatus.ACCEPTED, BALLOT)
                if known.status is not CommandStatus.STABLE:
                    return None
                return [c.command_id for c in side.manager.on_stable(command)]

            assert announce(indexed) == announce(scan)
            assert indexed.observable() == scan.observable()
            if indexed.manager.pending_count() == 0:
                # One list slot per blocking edge of a *pending* command.
                assert buckets_with_waiters(indexed.history) == []
        # Both are quiescent: a full rescan finds nothing either missed.
        assert indexed.manager.retry_pending() == scan.manager.retry_pending() == []
        assert indexed.observable() == scan.observable()


# ------------------------------------------------------------ scaling guard


class CountingHistory(CommandHistory):
    """Counts the entry lookups the delivery manager performs (every one is a
    ``get`` by id; BREAKLOOP turns a bit into an id through the key's interner)."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = 0

    def get(self, command_id):
        self.lookups += 1
        return super().get(command_id)


class CountingReferenceHistory(ReferenceHistory):
    """The same count over the node-wide interner the scan runs on."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = 0

    def get(self, command_id):
        self.lookups += 1
        return super().get(command_id)

    def entry_at(self, index):
        self.lookups += 1
        return super().entry_at(index)


#: Each manager with the counting history it runs on.
INDEXED = (DeliveryManager, CountingHistory)
SCAN = (ScanDeliveryManager, CountingReferenceHistory)


def lookups_for_one_unrelated_event(manager_and_history, depth: int) -> int:
    """History lookups of one stable event on key ``b`` while ``depth``
    stable commands on key ``a`` wait for a blocker that never arrives."""
    manager_cls, history_cls = manager_and_history
    history = history_cls()
    manager = manager_cls(history, lambda c: None)
    blocker = Command(command_id=(99, 0), key="a", operation="put", value="b", origin=0)
    for seq in range(depth):
        command = Command(command_id=(0, seq), key="a", operation="put", value="w", origin=0)
        history.update(command, LogicalTimestamp(seq + 2, 0), {blocker.command_id},
                       CommandStatus.STABLE, BALLOT)
        assert manager.on_stable(command) == []
    assert manager.pending_count() == depth
    unrelated = Command(command_id=(1, 0), key="b", operation="put", value="u", origin=0)
    history.update(unrelated, LogicalTimestamp(1, 1), set(), CommandStatus.STABLE, BALLOT)
    history.lookups = 0
    assert manager.on_stable(unrelated) == [unrelated]
    return history.lookups


def lookups_for_one_event_behind_delivered(manager_and_history, depth: int) -> int:
    """History lookups of one stable event on key ``a`` whose predecessors are
    ``depth`` delivered commands on that key, while one command on key ``b``
    stays pending (so the nothing-pending shortcut is not taken)."""
    manager_cls, history_cls = manager_and_history
    history = history_cls()
    manager = manager_cls(history, lambda c: None)
    delivered_mask = 0
    for seq in range(depth):
        command = Command(command_id=(0, seq), key="a", operation="put", value="w", origin=0)
        entry = history.update(command, LogicalTimestamp(seq + 1, 0), delivered_mask,
                               CommandStatus.STABLE, BALLOT)
        assert manager.on_stable(command) == [command]
        delivered_mask |= 1 << entry.index
    held = Command(command_id=(1, 0), key="b", operation="put", value="h", origin=0)
    history.update(held, LogicalTimestamp(1, 1), {(99, 0)}, CommandStatus.STABLE, BALLOT)
    assert manager.on_stable(held) == []
    late = Command(command_id=(2, 0), key="a", operation="put", value="l", origin=0)
    history.update(late, LogicalTimestamp(depth + 1, 2), delivered_mask,
                   CommandStatus.STABLE, BALLOT)
    history.lookups = 0
    assert manager.on_stable(late) == [late]
    return history.lookups


DEPTHS = (8, 64, 512)


def test_stable_event_cost_is_independent_of_pending_depth():
    counts = [lookups_for_one_unrelated_event(INDEXED, depth) for depth in DEPTHS]
    assert len(set(counts)) == 1, dict(zip(DEPTHS, counts))


def test_stable_event_cost_is_independent_of_delivered_predecessors():
    counts = [lookups_for_one_event_behind_delivered(INDEXED, depth) for depth in DEPTHS]
    assert len(set(counts)) == 1, dict(zip(DEPTHS, counts))


def test_the_guard_catches_the_scan():
    """The same counts grow linearly under the scan (its rescan of the pending
    commands, its BREAKLOOP over every predecessor), so the guards above would
    fail if either ever came back."""
    for lookups in (lookups_for_one_unrelated_event, lookups_for_one_event_behind_delivered):
        counts = [lookups(SCAN, depth) for depth in DEPTHS]
        assert counts[0] < counts[1] < counts[2] and counts[2] >= DEPTHS[2], counts
