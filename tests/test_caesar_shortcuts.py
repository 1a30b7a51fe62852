"""The shortcuts of the CAESAR decision path, each as the property it rests on.

* WAIT answers OK without a scan when nothing on the key is later than the
  proposal: over random buckets, :meth:`WaitManager.evaluate`'s answer for
  the bucket's last entry is OK, and for every entry it equals what WAIT as
  ``tests/spec_caesar.py`` states it answers on the same rows, with the wait
  condition on and off.
* :class:`Ballot`'s comparisons are written out: they must order ballots as
  ``(round, node_id)`` tuples do, and leave ``==`` / ``hash`` as the dataclass
  made them (a ballot is a dict value and a wire field).
* a replica's promise check (``CaesarReplica._joinable``) tries identity
  before it compares, and
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
from tests import spec_caesar as spec
from tests.conftest import build_replicas, evaluate_wait, write_entry

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
    """``rows`` on one key in the product's history and the spec's, and the
    product's wait manager."""
    history, spec_history = CommandHistory(), spec.SpecHistory()
    commands = [command_for(slot, read) for slot, (_, _, read, _) in enumerate(rows)]
    for slot, (counter, status, _, named) in enumerate(rows):
        predecessors = {commands[other].command_id for other in range(len(rows))
                        if named >> other & 1 and other != slot}
        write_entry(history, commands[slot], LogicalTimestamp(counter, slot), predecessors,
                    status, BALLOT)
        spec_history.update(commands[slot], LogicalTimestamp(counter, slot), predecessors,
                            status, BALLOT)
    return history, WaitManager(history, lambda: 0.0, enabled=enabled), commands, spec_history


def spec_answer(spec_history, command: Command, timestamp: LogicalTimestamp, enabled: bool):
    """WAIT's outcome as the spec states it (``None``: the proposal waits)."""
    wait = spec.SpecWait(spec_history, lambda: 0.0, enabled)
    return wait.evaluate(command, timestamp, lambda ok: None)


class TestWaitShortcut:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=bucket_strategy)
    def test_last_key_of_the_bucket_has_nothing_to_scan(self, rows):
        history, manager, _, spec_history = build(rows)
        last = history.bucket("k").entries[-1]
        assert spec_answer(spec_history, last.command, last.timestamp, True) is True
        assert manager.evaluate(last.command, last.timestamp, None, last, ()) is True
        assert manager.parked == 0

    @settings(max_examples=400, deadline=None, database=None)
    @given(rows=bucket_strategy, slot=st.integers(0, SLOTS - 1), enabled=st.booleans())
    def test_every_entry_is_answered_as_the_full_scan_answers(self, rows, slot, enabled):
        history, manager, commands, spec_history = build(rows, enabled)
        entry = history.get(commands[slot % len(rows)].command_id)
        expected = spec_answer(spec_history, entry.command, entry.timestamp, enabled)
        outcomes = []
        answer = manager.evaluate(entry.command, entry.timestamp, outcomes.append, entry, ())
        assert answer is expected
        assert outcomes == []  # a callback is for after a park, never for the call itself
        assert manager.parked == (1 if expected is None else 0)

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=bucket_strategy, counter=st.integers(0, 14), read=st.booleans(),
           enabled=st.booleans())
    def test_a_command_never_seen_is_answered_as_the_full_scan_answers(self, rows, counter,
                                                                       read, enabled):
        history, manager, _, spec_history = build(rows, enabled)
        newcomer = Command(command_id=(99, 0), key="k", operation="get" if read else "put",
                           origin=0)
        timestamp = LogicalTimestamp(counter, SLOTS)
        answer = evaluate_wait(manager, history, newcomer, timestamp, lambda ok: None)
        # The proposal's entry took the key's next index.
        index = history.index_of(newcomer.command_id)
        assert index == len(rows)
        assert answer is spec_answer(spec_history, newcomer, timestamp, enabled)

    def test_a_bucket_without_entries_is_no_bucket(self):
        """A key whose entries were all collected, or whose ids were only ever
        named as predecessors, has a bucket with nothing in it before a
        proposal's own entry: OK at once."""
        history = CommandHistory()
        manager = WaitManager(history, lambda: 0.0, True)
        gone = command_for(0, False)
        write_entry(history, gone, LogicalTimestamp(5, 0), set(), CommandStatus.STABLE, BALLOT)
        history.remove(gone.command_id)
        history.mask_from_ids({(7, 0)}, "named-only")
        for newcomer in (command_for(1, False),
                         Command(command_id=(8, 0), key="named-only", origin=0)):
            assert not history.bucket(newcomer.key).entries
            assert evaluate_wait(manager, history, newcomer, LogicalTimestamp(1, 1), None) is True
        assert manager.parked == 0

    def test_a_later_pending_conflict_is_not_skipped(self):
        """The teeth: an entry that is *not* the last key must be scanned."""
        rows = [(3, CommandStatus.FAST_PENDING, False, 0),
                (9, CommandStatus.FAST_PENDING, False, 0)]
        history, manager, commands, _ = build(rows)
        early = history.get(commands[0].command_id)
        assert manager.evaluate(early.command, early.timestamp, lambda ok: None,
                                early, ()) is None
        assert manager.parked == 1
        history, manager, commands, _ = build([rows[0], (9, CommandStatus.STABLE, False, 0)])
        early = history.get(commands[0].command_id)
        assert manager.evaluate(early.command, early.timestamp, None, early, ()) is False

    def test_an_equal_timestamp_is_not_later(self):
        """The suffix is strictly greater: a tie (never issued) neither blocks nor rejects."""
        history, spec_history = CommandHistory(), spec.SpecHistory()
        first, second = command_for(0, False), command_for(1, False)
        tie = LogicalTimestamp(5, 0)
        write_entry(history, first, tie, set(), CommandStatus.STABLE, BALLOT)
        write_entry(history, second, tie, set(), CommandStatus.FAST_PENDING, BALLOT)
        spec_history.update(first, tie, set(), CommandStatus.STABLE, BALLOT)
        spec_history.update(second, tie, set(), CommandStatus.FAST_PENDING, BALLOT)
        manager = WaitManager(history, lambda: 0.0, True)
        for command in (first, second):
            assert spec_answer(spec_history, command, tie, True) is True
            assert manager.evaluate(command, tie, None, history.get(command.command_id), ()) is True


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


class TestPromise:
    def test_a_resend_at_the_joined_ballot_is_allowed(self):
        """``>=``, not ``>``: also for an equal ballot that is another object,
        whether the entry holds the promise or the table above it does."""
        replica = build_replicas(n=3)[2][0]
        command = Command(command_id=(1, 0), key="x", operation="put", value="v", origin=1)
        joined = Ballot(1, 2)
        entry = write_entry(replica.history, command, LogicalTimestamp(3, 1), (),
                            CommandStatus.FAST_PENDING, joined)
        for held_by in ("entry", "table"):
            if held_by == "table":
                entry.ballot = Ballot.initial(1)
                replica.promises[command.command_id] = joined
            assert replica.promised(command.command_id) is joined
            for ballot in (joined, Ballot(1, 2), Ballot(1, 3), Ballot(2, 0)):
                assert replica._joinable(command.command_id, ballot, entry), (held_by, ballot)
            for ballot in (Ballot(1, 1), Ballot(0, 4)):
                assert not replica._joinable(command.command_id, ballot, entry), (held_by, ballot)
        assert replica._joinable((9, 9), Ballot(0, 0), None)


class TestObserve:
    def test_observing_the_current_timestamp_moves_past_it(self):
        """``>=``, not ``>``: the next local timestamp must exceed what was seen."""
        generator = TimestampGenerator(node_id=2)
        generator.observe(LogicalTimestamp(4, 2))
        assert generator._counter == 5
        generator.observe(LogicalTimestamp(5, 2))
        assert generator._counter == 6

    @given(counter=st.integers(0, 5), node=st.integers(0, 4), seen=st.integers(0, 5),
           seen_node=st.integers(0, 4))
    def test_observe_agrees_with_timestamp_order(self, counter, node, seen, seen_node):
        generator = TimestampGenerator(node_id=node)
        generator._counter = counter
        observed = LogicalTimestamp(seen, seen_node)
        generator.observe(observed)
        clock = LogicalTimestamp(generator._counter, node)
        if observed >= LogicalTimestamp(counter, node):
            assert clock == LogicalTimestamp(seen + 1, node)
        else:
            assert clock == LogicalTimestamp(counter, node)
        assert clock > observed
