"""Unit tests for stable-command delivery and BREAKLOOP."""

from __future__ import annotations

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.delivery import DeliveryManager
from repro.core.history import CommandHistory, CommandStatus
from tests.conftest import make_command


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


BALLOT = Ballot.initial(0)


class DeliveryHarness:
    """History + delivery manager + a list capturing execution order."""

    def __init__(self) -> None:
        self.history = CommandHistory()
        self.executed = []
        self.manager = DeliveryManager(self.history, lambda c: self.executed.append(c.command_id))

    def stable(self, command, timestamp, predecessors=()):
        self.history.update(command, timestamp, set(predecessors), CommandStatus.STABLE, BALLOT)
        return self.manager.on_stable(command)


class TestBasicDelivery:
    def test_command_without_predecessors_delivered_immediately(self):
        harness = DeliveryHarness()
        command = make_command(0, 0, key="x")
        delivered = harness.stable(command, ts(1))
        assert [c.command_id for c in delivered] == [command.command_id]
        assert harness.manager.is_delivered(command.command_id)
        assert harness.manager.delivered_count == 1

    def test_command_waits_for_predecessor(self):
        harness = DeliveryHarness()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        harness.stable(second, ts(5), predecessors={first.command_id})
        assert harness.executed == []
        assert harness.manager.pending_count() == 1
        harness.stable(first, ts(1))
        assert harness.executed == [first.command_id, second.command_id]

    def test_duplicate_stable_is_ignored(self):
        harness = DeliveryHarness()
        command = make_command(0, 0, key="x")
        harness.stable(command, ts(1))
        assert harness.stable(command, ts(1)) == []
        assert harness.executed == [command.command_id]

    def test_delivery_respects_timestamp_order_among_ready(self):
        harness = DeliveryHarness()
        late = make_command(0, 0, key="x")
        early = make_command(1, 0, key="x")
        blocker = make_command(2, 0, key="x")
        # Make both late and early wait on the same predecessor, then release it.
        harness.stable(late, ts(9), predecessors={blocker.command_id})
        harness.stable(early, ts(2), predecessors={blocker.command_id})
        harness.stable(blocker, ts(1))
        assert harness.executed == [blocker.command_id, early.command_id, late.command_id]

    def test_execute_callback_runs_once_the_command_counts_as_delivered(self):
        """What a replica does after a delivery rides on ``execute``: there is no second hook."""
        history = CommandHistory()
        seen = []
        manager = DeliveryManager(history, lambda c: seen.append(
            (c.command_id, manager.is_delivered(c.command_id), list(manager.delivered_order))))
        command = make_command(0, 0, key="x")
        history.update(command, ts(1), set(), CommandStatus.STABLE, BALLOT)
        manager.on_stable(command)
        assert seen == [(command.command_id, True, [command.command_id])]

    def test_stable_again_after_collection_is_not_delivered_twice(self):
        """A collected command has no entry, but its bit is still in the delivered set."""
        harness = DeliveryHarness()
        command = make_command(0, 0, key="x")
        assert harness.stable(command, ts(1)) == [command]
        harness.history.remove(command.command_id)
        for entry in ((), (None,)):  # looked up here, or handed in as "not there"
            assert harness.manager.on_stable(command, *entry) == []
        assert harness.manager.pending_count() == 0
        assert harness.executed == [command.command_id]

    def test_retry_pending_after_external_change(self):
        harness = DeliveryHarness()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        harness.stable(second, ts(5), predecessors={first.command_id})
        # Simulate the predecessor being garbage-collected / delivered elsewhere:
        entry = harness.history.get(second.command_id)
        entry.pred_mask = 0
        delivered = harness.manager.retry_pending()
        assert [c.command_id for c in delivered] == [second.command_id]


class TestBreakLoop:
    def test_mutual_reference_lower_timestamp_first(self):
        """c1(ts1) <-> c2(ts4): whoever arrives second, both must deliver, c1 first."""
        harness = DeliveryHarness()
        c1 = make_command(0, 0, key="x")
        c2 = make_command(1, 0, key="x")
        harness.stable(c1, ts(1), predecessors={c2.command_id})
        assert harness.executed == []  # c2 not stable yet
        harness.stable(c2, ts(4), predecessors={c1.command_id})
        assert harness.executed == [c1.command_id, c2.command_id]

    def test_mutual_reference_higher_timestamp_first(self):
        harness = DeliveryHarness()
        c1 = make_command(0, 0, key="x")
        c2 = make_command(1, 0, key="x")
        harness.stable(c2, ts(4), predecessors={c1.command_id})
        assert harness.executed == []
        harness.stable(c1, ts(1), predecessors={c2.command_id})
        assert harness.executed == [c1.command_id, c2.command_id]

    def test_three_way_loop_resolved_by_timestamps(self):
        harness = DeliveryHarness()
        a = make_command(0, 0, key="x")
        b = make_command(1, 0, key="x")
        c = make_command(2, 0, key="x")
        harness.stable(a, ts(1), predecessors={b.command_id, c.command_id})
        harness.stable(b, ts(2), predecessors={a.command_id, c.command_id})
        harness.stable(c, ts(3), predecessors={a.command_id, b.command_id})
        assert harness.executed == [a.command_id, b.command_id, c.command_id]

    def test_break_loop_does_not_touch_unrelated_edges(self):
        harness = DeliveryHarness()
        a = make_command(0, 0, key="x")
        b = make_command(1, 0, key="x")
        c = make_command(2, 0, key="x")
        # b depends on a (legitimately earlier), and on c which is later: only
        # the (b -> c) edge should be cut.
        harness.stable(b, ts(5), predecessors={a.command_id, c.command_id})
        harness.stable(c, ts(9), predecessors={a.command_id, b.command_id})
        assert harness.executed == []  # both still wait for a
        harness.stable(a, ts(1))
        assert harness.executed == [a.command_id, b.command_id, c.command_id]
