"""Unit tests for the per-node command history H_i."""

from __future__ import annotations

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.command import KeyBindingError
from repro.consensus.timestamps import LogicalTimestamp, TimestampRangeError
from repro.core.history import CommandHistory, CommandStatus
from tests.conftest import make_command


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


class TestUpdateAndLookup:
    def test_update_inserts_entry(self):
        history = CommandHistory()
        command = make_command(0, 0, key="x")
        history.update(command, ts(1), set(), CommandStatus.FAST_PENDING, Ballot.initial(0))
        entry = history.get(command.command_id)
        assert entry is not None
        assert entry.status is CommandStatus.FAST_PENDING
        assert entry.timestamp == ts(1)
        assert command.command_id in history

    def test_update_replaces_existing_entry(self):
        history = CommandHistory()
        command = make_command(0, 0, key="x")
        history.update(command, ts(1), set(), CommandStatus.FAST_PENDING, Ballot.initial(0))
        history.update(command, ts(5), {(9, 9)}, CommandStatus.STABLE, Ballot.initial(0))
        assert len(history) == 1
        entry = history.get(command.command_id)
        assert entry.status is CommandStatus.STABLE
        assert entry.timestamp == ts(5)
        assert entry.predecessors == {(9, 9)}

    def test_get_unknown_returns_none(self):
        assert CommandHistory().get((1, 2)) is None

    def test_predecessors_of_unknown_is_empty(self):
        assert CommandHistory().predecessors_of((1, 2)) == set()

    def test_status_of(self):
        history = CommandHistory()
        command = make_command(0, 0)
        history.update(command, ts(1), set(), CommandStatus.ACCEPTED, Ballot.initial(0))
        assert history.status_of(command.command_id) is CommandStatus.ACCEPTED
        assert history.status_of((9, 9)) is None

    def test_remove_cleans_key_index(self):
        history = CommandHistory()
        command = make_command(0, 0, key="x")
        other = make_command(1, 0, key="x")
        history.update(command, ts(1), set(), CommandStatus.STABLE, Ballot.initial(0))
        history.remove(command.command_id)
        assert command.command_id not in history
        assert list(history.conflicting_with(other)) == []


    def test_remove_keeps_the_emptied_bucket_and_its_indices(self):
        """A key's interner outlives its entries: the collected id keeps its bit."""
        history = CommandHistory()
        command = make_command(0, 0, key="x")
        entry = history.update(command, ts(1), set(), CommandStatus.STABLE, Ballot.initial(0))
        history.remove(command.command_id)
        bucket = history.bucket("x")
        assert bucket is entry.bucket and bucket.entries == [] and bucket.all_mask == 0
        assert bucket.id_of == [command.command_id]
        # Bound without an entry again, so found through the binding map.
        assert history._bucket_of == {command.command_id: bucket}
        assert history.bucket_of(command.command_id) is bucket
        assert history.index_of(command.command_id) == entry.index
        assert history.mask_from_ids({command.command_id}, "x") == 1 << entry.index

    def test_an_id_named_before_its_entry_is_bound_through_the_entry_once_it_has_one(self):
        history = CommandHistory()
        named = make_command(0, 0, key="x")
        history.update(make_command(1, 0, key="x"), ts(2), {named.command_id},
                       CommandStatus.STABLE, Ballot.initial(0))
        bucket = history.bucket("x")
        assert history._bucket_of == {named.command_id: bucket}
        entry = history.update(named, ts(1), set(), CommandStatus.STABLE, Ballot.initial(0))
        assert history._bucket_of == {}
        assert (history.bucket_of(named.command_id), history.index_of(named.command_id)) == (
            bucket, entry.index) == (bucket, 0)


class TestSortKeys:
    def test_a_node_id_past_32_bits_is_refused_before_anything_changes(self):
        history = CommandHistory()
        command = make_command(0, 0, key="x")
        with pytest.raises(TimestampRangeError, match=r"<1,4294967296> has a node id outside"):
            history.update(command, ts(1, 1 << 32), {(5, 5)}, CommandStatus.STABLE,
                           Ballot.initial(0))
        assert len(history) == 0 and history.bucket("x") is None
        assert history.index_of((5, 5)) is None and history._bucket_of == {}
        entry = history.update(command, ts(1, (1 << 32) - 1), set(), CommandStatus.STABLE,
                               Ballot.initial(0))
        # Counter 1, node id 2**32 - 1, index 0: (1 << 32 | 2**32 - 1) << 32 | 0.
        assert history.bucket("x").keys == [(1 << 65) - (1 << 32)]
        assert entry.bucket.entries == [entry]

    def test_packed_keys_order_entries_as_their_timestamps(self):
        """Counter first, then node id, then the index, whatever the magnitudes."""
        history = CommandHistory()
        stamps = [ts(2, 0), ts(1, (1 << 32) - 1), ts(1 << 40, 3), ts(1, 0), ts(2, 1)]
        for seq, timestamp in enumerate(stamps):
            history.update(make_command(seq, 0, key="x"), timestamp, set(),
                           CommandStatus.FAST_PENDING, Ballot.initial(0))
        bucket = history.bucket("x")
        assert [entry.timestamp for entry in bucket.entries] == sorted(stamps)
        assert bucket.keys == sorted(bucket.keys)
        # The prefix / suffix searches split at a timestamp, never inside one.
        assert bucket.suffix_start(ts(2, 0)) == 3 and bucket.suffix_start(ts(1, 5)) == 1
        assert history.ids_from_mask(bucket.prefix_mask(ts(2, 1), writes_only=False), "x") == {
            (0, 0), (1, 0), (3, 0)}


class TestFirstKeyBinding:
    """An id is bound to the first key a message names it on, and refused on any other."""

    def test_an_id_named_on_a_second_key_is_refused_before_anything_changes(self):
        history = CommandHistory()
        ballot = Ballot.initial(0)
        named = make_command(0, 0, key="a")
        history.update(make_command(1, 0, key="a"), ts(2), {named.command_id},
                       CommandStatus.STABLE, ballot)
        bucket = history.bucket("a")
        before = (list(bucket.id_of), bucket.all_mask, bucket.delivered, len(history))
        with pytest.raises(KeyBindingError,
                           match=r"command \(0, 0\) is bound to key 'a', named on key 'b'"):
            history.update(make_command(0, 0, key="b"), ts(1), {(5, 5)},
                           CommandStatus.STABLE, ballot)
        # Not even the new predecessor was bound, nor a bucket made for "b".
        assert history.get(named.command_id) is None and history.bucket("b") is None
        assert history.index_of((5, 5)) is None
        assert (list(bucket.id_of), bucket.all_mask, bucket.delivered, len(history)) == before
        # Naming it as a predecessor on another key: checked before any id is bound.
        with pytest.raises(KeyBindingError, match="named on key 'c'"):
            history.mask_from_ids([(7, 7), named.command_id], "c")
        with pytest.raises(KeyBindingError):
            history.intern(named.command_id, "c")
        assert history.bucket("c") is None and history.index_of((7, 7)) is None
        # On its own key the command arrives at the index it was named with.
        index = history.index_of(named.command_id)
        entry = history.update(named, ts(1), set(), CommandStatus.STABLE, ballot)
        assert (entry.bucket, entry.index) == (bucket, index)

    def test_a_command_with_an_entry_is_refused_on_another_key(self):
        history = CommandHistory()
        ballot = Ballot.initial(0)
        command = make_command(0, 0, key="a")
        entry = history.update(command, ts(1), set(), CommandStatus.FAST_PENDING, ballot)
        with pytest.raises(KeyBindingError, match="bound to key 'a', named on key 'b'"):
            history.update(make_command(0, 0, key="b"), ts(3), set(), CommandStatus.STABLE,
                           ballot, entry=entry)
        assert (entry.command, entry.timestamp, entry.status) == (
            command, ts(1), CommandStatus.FAST_PENDING)
        assert history.bucket("b") is None

    @pytest.mark.parametrize("collected", [False, True], ids=["with-entry", "collected"])
    def test_an_id_with_an_entry_or_collected_is_refused_on_another_key(self, collected):
        """With an entry, an id is bound through it and is not in ``_bucket_of``;
        collected, it is back in ``_bucket_of``.  Named on another key, as a
        predecessor or as the command, it is refused with nothing changed."""
        history = CommandHistory()
        ballot = Ballot.initial(0)
        command = make_command(0, 0, key="a")
        entry = history.update(command, ts(1), set(), CommandStatus.STABLE, ballot)
        assert history._bucket_of == {}
        if collected:
            history.remove(command.command_id)
            assert history._bucket_of == {command.command_id: entry.bucket}
        bound = dict(history._bucket_of)
        named = command.command_id
        attempts = [
            lambda: history.mask_from_ids([(7, 7), named], "b"),
            lambda: history.intern(named, "b"),
            lambda: history.update(make_command(1, 0, key="b"), ts(2), {(7, 7), named},
                                   CommandStatus.STABLE, ballot),
            lambda: history.update(make_command(0, 0, key="b"), ts(2), set(),
                                   CommandStatus.STABLE, ballot),
        ]
        for attempt in attempts:
            with pytest.raises(KeyBindingError,
                               match=r"command \(0, 0\) is bound to key 'a', named on key 'b'"):
                attempt()
        assert history.bucket("b") is None and history._bucket_of == bound
        assert history.index_of((7, 7)) is None and history.index_of((1, 0)) is None
        assert history.index_of(named) == entry.index


class TestConflictIndex:
    def test_conflicting_with_same_key(self):
        history = CommandHistory()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        unrelated = make_command(2, 0, key="y")
        for i, command in enumerate([first, second, unrelated]):
            history.update(command, ts(i), set(), CommandStatus.FAST_PENDING, Ballot.initial(0))
        conflicting = {entry.command_id for entry in history.conflicting_with(first)}
        assert conflicting == {second.command_id}

    def test_conflicting_excludes_self(self):
        history = CommandHistory()
        command = make_command(0, 0, key="x")
        history.update(command, ts(1), set(), CommandStatus.FAST_PENDING, Ballot.initial(0))
        assert list(history.conflicting_with(command)) == []

    def test_reads_do_not_conflict(self):
        history = CommandHistory()
        read_one = make_command(0, 0, key="x", operation="get")
        read_two = make_command(1, 0, key="x", operation="get")
        history.update(read_one, ts(1), set(), CommandStatus.FAST_PENDING, Ballot.initial(0))
        assert list(history.conflicting_with(read_two)) == []

    def test_stable_entries_iterator(self):
        history = CommandHistory()
        stable = make_command(0, 0, key="a")
        pending = make_command(1, 0, key="b")
        history.update(stable, ts(1), set(), CommandStatus.STABLE, Ballot.initial(0))
        history.update(pending, ts(2), set(), CommandStatus.FAST_PENDING, Ballot.initial(0))
        assert {e.command_id for e in history.stable_entries()} == {stable.command_id}


class TestStatusFlags:
    @pytest.mark.parametrize("status,finalizing", [
        (CommandStatus.FAST_PENDING, False),
        (CommandStatus.SLOW_PENDING, False),
        (CommandStatus.REJECTED, False),
        (CommandStatus.ACCEPTED, True),
        (CommandStatus.STABLE, True),
    ])
    def test_is_finalizing(self, status, finalizing):
        assert status.is_finalizing == finalizing

    @pytest.mark.parametrize("status,survived", [
        (CommandStatus.FAST_PENDING, False),
        (CommandStatus.REJECTED, False),
        (CommandStatus.SLOW_PENDING, True),
        (CommandStatus.ACCEPTED, True),
        (CommandStatus.STABLE, True),
    ])
    def test_survived_proposal(self, status, survived):
        assert status.survived_proposal == survived
