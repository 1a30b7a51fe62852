"""The shortcuts of the CAESAR decision path, each as the property it rests on.

* WAIT answers OK without a scan when nothing on the key is later than the
  proposal: over random buckets, an entry that is its bucket's last key has
  an empty ``> timestamp`` suffix, and :meth:`WaitManager.evaluate`'s answer
  equals what the full ``_scan_masks`` pass gives, with the wait condition on
  and off, with the entry handed in and with the entry looked up.
* :class:`Ballot`'s comparisons are written out: they must order ballots as
  ``(round, node_id)`` tuples do, and leave ``==`` / ``hash`` as the dataclass
  made them (a ballot is a dict value and a wire field).
* :class:`BallotRegister` tries identity before it compares, and
  :meth:`TimestampGenerator.observe` compares fields: an *equal* ballot that is
  another object (anything decoded from a socket) is treated like the same
  one, and a timestamp equal to the clock still moves the clock past it.

EXPERIMENTS.md ("A CAESAR handler looks its command up once") lists the
mutants these tests and ``tests/test_caesar_differential.py`` kill.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp, TimestampGenerator
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager
from repro.runtime.kernel import BallotRegister

BALLOT = Ballot.initial(0)
STATUSES = tuple(CommandStatus)
SLOTS = 8

#: One row of a random bucket: (timestamp counter, status, is a read, the
#: slots it lists as predecessors).  The slot is the timestamp's node id, so
#: no two rows share a timestamp.
row_strategy = st.tuples(st.integers(1, 12), st.sampled_from(STATUSES), st.booleans(),
                         st.integers(0, 2 ** SLOTS - 1))
bucket_strategy = st.lists(row_strategy, min_size=1, max_size=SLOTS)


def command_for(slot: int, read: bool) -> Command:
    return Command(command_id=(slot, 0), key="k", operation="get" if read else "put",
                   value=f"v{slot}", origin=0)


def build(rows, enabled: bool = True):
    """A history holding ``rows`` on one key, and a wait manager over it."""
    history = CommandHistory()
    commands = [command_for(slot, read) for slot, (_, _, read, _) in enumerate(rows)]
    for slot, (counter, status, _, named) in enumerate(rows):
        predecessors = {commands[other].command_id for other in range(len(rows))
                        if named >> other & 1 and other != slot}
        history.update(commands[slot], LogicalTimestamp(counter, slot), predecessors,
                       status, BALLOT)
    return history, WaitManager(history, lambda: 0.0, enabled=enabled), commands


def full_scan_answer(manager: WaitManager, command: Command, timestamp: LogicalTimestamp,
                     self_bit: int, enabled: bool):
    """WAIT's outcome from the unconditional suffix scan: the specification."""
    blocker_mask, witness_mask = manager._scan_masks(command, timestamp, self_bit)
    if blocker_mask:
        return None if enabled else False
    return not witness_mask


class TestWaitShortcut:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=bucket_strategy)
    def test_last_key_of_the_bucket_has_nothing_to_scan(self, rows):
        history, manager, _ = build(rows)
        last = history.bucket("k").entries[-1]
        assert manager._scan_masks(last.command, last.timestamp, 1 << last.index) == (0, 0)
        assert manager.evaluate(last.command, last.timestamp, None, last) is True
        assert manager.parked_count() == 0

    @settings(max_examples=400, deadline=None, database=None)
    @given(rows=bucket_strategy, slot=st.integers(0, SLOTS - 1), enabled=st.booleans(),
           handed=st.booleans())
    def test_every_entry_is_answered_as_the_full_scan_answers(self, rows, slot, enabled,
                                                              handed):
        history, manager, commands = build(rows, enabled)
        entry = history.get(commands[slot % len(rows)].command_id)
        expected = full_scan_answer(manager, entry.command, entry.timestamp,
                                    1 << entry.index, enabled)
        outcomes = []
        callback = lambda ok, waited: outcomes.append(ok)  # noqa: E731
        if handed:
            answer = manager.evaluate(entry.command, entry.timestamp, callback, entry)
        else:
            answer = manager.evaluate(entry.command, entry.timestamp, callback)
        assert answer is expected
        assert outcomes == []  # a callback is for after a park, never for the call itself
        assert manager.parked_count() == (1 if expected is None else 0)

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=bucket_strategy, counter=st.integers(0, 14), read=st.booleans(),
           enabled=st.booleans())
    def test_a_command_never_seen_is_answered_as_the_full_scan_answers(self, rows, counter,
                                                                       read, enabled):
        history, manager, _ = build(rows, enabled)
        newcomer = Command(command_id=(99, 0), key="k", operation="get" if read else "put",
                           origin=0)
        timestamp = LogicalTimestamp(counter, SLOTS)
        answer = manager.evaluate(newcomer, timestamp, lambda ok, waited: None)
        # WAIT interned the id on the way, as it always has.
        index = history.index_of(newcomer.command_id)
        assert index == len(rows)
        assert answer is full_scan_answer(manager, newcomer, timestamp, 1 << index, enabled)

    def test_a_bucket_without_entries_is_no_bucket(self):
        """A key whose entries were all collected, or whose ids were only ever
        named as predecessors, has a bucket with nothing in it: OK at once."""
        history = CommandHistory()
        manager = WaitManager(history, lambda: 0.0)
        gone = command_for(0, False)
        history.update(gone, LogicalTimestamp(5, 0), set(), CommandStatus.STABLE, BALLOT)
        history.remove(gone.command_id)
        history.mask_from_ids({(7, 0)}, "named-only")
        for newcomer in (command_for(1, False),
                         Command(command_id=(8, 0), key="named-only", origin=0)):
            assert not history.bucket(newcomer.key).entries
            assert manager.evaluate(newcomer, LogicalTimestamp(1, 1), None) is True
        assert manager.parked_count() == 0

    def test_a_later_pending_conflict_is_not_skipped(self):
        """The teeth: an entry that is *not* the last key must be scanned."""
        rows = [(3, CommandStatus.FAST_PENDING, False, 0),
                (9, CommandStatus.FAST_PENDING, False, 0)]
        history, manager, commands = build(rows)
        early = history.get(commands[0].command_id)
        assert manager.evaluate(early.command, early.timestamp, lambda ok, waited: None,
                                early) is None
        assert manager.parked_count() == 1
        history, manager, commands = build([rows[0], (9, CommandStatus.STABLE, False, 0)])
        early = history.get(commands[0].command_id)
        assert manager.evaluate(early.command, early.timestamp, None, early) is False

    def test_an_equal_timestamp_is_not_later(self):
        """The suffix is strictly greater: a tie (never issued) neither blocks nor rejects."""
        history = CommandHistory()
        first, second = command_for(0, False), command_for(1, False)
        tie = LogicalTimestamp(5, 0)
        history.update(first, tie, set(), CommandStatus.STABLE, BALLOT)
        entry = history.update(second, tie, set(), CommandStatus.FAST_PENDING, BALLOT)
        manager = WaitManager(history, lambda: 0.0)
        assert manager._scan_masks(second, tie, 1 << entry.index) == (0, 0)
        assert manager.evaluate(second, tie, None, entry) is True
        first_entry = history.get(first.command_id)
        assert manager.evaluate(first, tie, None, first_entry) is True


GRID = [Ballot(round_, node) for round_ in range(3) for node in range(3)]


class TestBallotComparisons:
    def test_six_operators_agree_with_tuple_order(self):
        for left, right in itertools.product(GRID, repeat=2):
            a, b = (left.round, left.node_id), (right.round, right.node_id)
            assert (left < right) is (a < b)
            assert (left <= right) is (a <= b)
            assert (left > right) is (a > b)
            assert (left >= right) is (a >= b)
            assert (left == right) is (a == b)
            assert (left != right) is (a != b)

    def test_equal_rounds_are_ordered_by_node(self):
        assert Ballot(1, 0) < Ballot(1, 1) and Ballot(1, 1) > Ballot(1, 0)
        assert Ballot(1, 1) >= Ballot(1, 1) and Ballot(1, 1) <= Ballot(1, 1)
        assert not Ballot(1, 1) > Ballot(1, 1) and not Ballot(1, 1) < Ballot(1, 1)

    def test_hash_and_equality_are_the_dataclass_ones(self):
        for ballot in GRID:
            twin = Ballot(ballot.round, ballot.node_id)
            assert twin is not ballot and twin == ballot and hash(twin) == hash(ballot)
            assert hash(ballot) == hash((ballot.round, ballot.node_id))
        assert len(set(GRID + [Ballot(b.round, b.node_id) for b in GRID])) == len(GRID)
        assert Ballot(0, 1) != (0, 1)

    def test_sorting_and_max_use_the_written_out_operators(self):
        shuffled = GRID[::-1]
        assert sorted(shuffled) == GRID
        assert max(shuffled) == GRID[-1] and min(shuffled) == GRID[0]

    def test_other_types_are_not_comparable(self):
        for operation in (lambda: BALLOT < (0, 0), lambda: BALLOT >= 3,
                          lambda: BALLOT > LogicalTimestamp(0, 0)):
            try:
                operation()
            except TypeError:
                continue
            raise AssertionError("a ballot compared with something that is not one")


class TestBallotRegister:
    def test_a_resend_at_the_joined_ballot_is_allowed(self):
        """``>=``, not ``>``: also for an equal ballot that is another object."""
        register = BallotRegister()
        joined = Ballot(1, 2)
        register["c"] = joined
        assert register.allows("c", joined)
        assert register.allows("c", Ballot(1, 2))
        assert register.allows("c", Ballot(1, 3)) and register.allows("c", Ballot(2, 0))
        assert not register.allows("c", Ballot(1, 1)) and not register.allows("c", Ballot(0, 4))
        assert register.allows("never seen", Ballot(0, 0))

    def test_observe_adopts_equal_and_higher_ballots_only(self):
        register = BallotRegister()
        register.observe("c", Ballot(1, 2))
        assert register["c"] == Ballot(1, 2)
        twin = Ballot(1, 2)
        register.observe("c", twin)
        assert register["c"] is twin
        register.observe("c", Ballot(0, 4))
        assert register["c"] is twin
        register.observe("c", Ballot(1, 3))
        assert register["c"] == Ballot(1, 3)


class TestObserve:
    def test_observing_the_current_timestamp_moves_past_it(self):
        """``>=``, not ``>``: the next local timestamp must exceed what was seen."""
        generator = TimestampGenerator(node_id=2)
        generator.observe(LogicalTimestamp(4, 2))
        assert generator.current == LogicalTimestamp(5, 2)
        generator.observe(LogicalTimestamp(5, 2))
        assert generator.current == LogicalTimestamp(6, 2)

    @given(counter=st.integers(0, 5), node=st.integers(0, 4), seen=st.integers(0, 5),
           seen_node=st.integers(0, 4))
    def test_observe_agrees_with_timestamp_order(self, counter, node, seen, seen_node):
        generator = TimestampGenerator(node_id=node)
        generator._counter = counter
        observed = LogicalTimestamp(seen, seen_node)
        generator.observe(observed)
        if observed >= LogicalTimestamp(counter, node):
            assert generator.current == LogicalTimestamp(seen + 1, node)
        else:
            assert generator.current == LogicalTimestamp(counter, node)
        assert generator.current > observed
