"""Unit tests for commands, the conflict relation, and the replica interface."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.command import Command
from repro.consensus.interface import Decision, DecisionKind, ExecutionLog
from tests.conftest import make_command


class TestConflictRelation:
    def test_same_key_writes_conflict(self):
        assert make_command(0, 0, key="x").conflicts_with(make_command(1, 0, key="x"))

    def test_different_keys_commute(self):
        assert not make_command(0, 0, key="x").conflicts_with(make_command(1, 0, key="y"))

    def test_reads_of_same_key_commute(self):
        a = make_command(0, 0, key="x", operation="get")
        b = make_command(1, 0, key="x", operation="get")
        assert not a.conflicts_with(b)

    def test_read_write_same_key_conflicts(self):
        a = make_command(0, 0, key="x", operation="get")
        b = make_command(1, 0, key="x", operation="put")
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)

    def test_is_write(self):
        assert make_command(0, 0).is_write
        assert not make_command(0, 0, operation="get").is_write

    def test_str_mentions_key_and_id(self):
        text = str(make_command(3, 7, key="alpha"))
        assert "alpha" in text and "3.7" in text

    @given(st.text(min_size=1, max_size=5), st.text(min_size=1, max_size=5))
    def test_conflict_relation_is_symmetric(self, key_a, key_b):
        a = Command(command_id=(0, 0), key=key_a, operation="put", value="1")
        b = Command(command_id=(1, 0), key=key_b, operation="put", value="2")
        assert a.conflicts_with(b) == b.conflicts_with(a)


class TestDecision:
    def test_latency_none_until_executed(self):
        decision = Decision(submitted_at=10.0)
        assert decision.latency_ms is None
        assert not decision.is_complete

    def test_latency_computed_from_execution(self):
        decision = Decision(submitted_at=10.0, executed_at=95.0, kind=DecisionKind.FAST)
        assert decision.latency_ms == pytest.approx(85.0)
        assert decision.is_complete


def _grouped_violations(log: ExecutionLog, other: ExecutionLog) -> list:
    """``ExecutionLog.conflicting_order_violations`` as it was before it compared
    per-key sequences first: every common command grouped with its position."""
    violations = []
    other_positions = other.positions()
    by_key = {}
    for c in log._entries:
        position = other_positions.get(c.command_id)
        if position is not None:
            by_key.setdefault(c.key, []).append((c, position))
    for group in by_key.values():
        if len(group) < 2:
            continue
        positions = [position for _, position in group]
        if all(positions[i] < positions[i + 1] for i in range(len(positions) - 1)):
            continue
        for i, (first, first_pos) in enumerate(group):
            for second, second_pos in group[i + 1:]:
                if first_pos > second_pos and first.conflicts_with(second):
                    violations.append((first.command_id, second.command_id))
    return violations


def _list_violations(log: list, other: list) -> set:
    """Every conflicting pair ``log`` orders unlike ``other``, by brute force."""
    return {(first.command_id, second.command_id)
            for i, first in enumerate(log) for second in log[i + 1:]
            if first in other and second in other and first.conflicts_with(second)
            and other.index(first) > other.index(second)}


class TestExecutionLog:
    def test_append_and_position(self):
        log = ExecutionLog()
        first = make_command(0, 0, key="a")
        second = make_command(0, 1, key="b")
        log.append(first)
        log.append(second)
        assert log.positions() == {first.command_id: 0, second.command_id: 1}
        assert list(log) == [first, second]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_log_agrees_with_a_list_of_its_commands(self, data):
        """Positions, slices and violations read as a plain list of the executed
        commands gives them.  A replica appends each id once (its own guard:
        ``tests/test_replica_interface.py``), so a drawn repeat is skipped."""
        pool = [Command(command_id=(client, seq), key=data.draw(st.sampled_from("ab")),
                        operation=data.draw(st.sampled_from(("put", "get"))))
                for client in range(3) for seq in range(3)]
        lists, logs = [], []
        for _ in range(2):
            executed, log = [], ExecutionLog()
            for command in data.draw(st.lists(st.sampled_from(pool), max_size=12)):
                if command.command_id not in {c.command_id for c in executed}:
                    log.append(command)
                    executed.append(command)
            assert list(log) == executed and len(log) == len(executed)
            assert log.positions() == {c.command_id: i for i, c in enumerate(executed)}
            start, stop = data.draw(st.integers(0, 13)), data.draw(st.integers(0, 13))
            assert log.ids(start, stop) == [c.command_id for c in executed[start:stop]]
            lists.append(executed)
            logs.append(log)
        assert set(logs[0].conflicting_order_violations(logs[1])) == _list_violations(*lists)
        assert set(logs[1].conflicting_order_violations(logs[0])) == _list_violations(*lists[::-1])

    def test_no_violation_when_orders_agree(self):
        log_a, log_b = ExecutionLog(), ExecutionLog()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        for log in (log_a, log_b):
            log.append(first)
            log.append(second)
        assert log_a.conflicting_order_violations(log_b) == []

    def test_violation_detected_for_conflicting_reorder(self):
        log_a, log_b = ExecutionLog(), ExecutionLog()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        log_a.append(first)
        log_a.append(second)
        log_b.append(second)
        log_b.append(first)
        assert log_a.conflicting_order_violations(log_b) == [
            (first.command_id, second.command_id)]

    def test_commuting_reorder_is_allowed(self):
        log_a, log_b = ExecutionLog(), ExecutionLog()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="y")
        log_a.append(first)
        log_a.append(second)
        log_b.append(second)
        log_b.append(first)
        assert log_a.conflicting_order_violations(log_b) == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_violations_match_the_per_command_grouping_it_replaced(self, data):
        """Same pairs in the same order as the check that grouped every common
        command with its position, whichever keys are swapped, reads included,
        and whichever commands only one log executed."""
        commands = [Command(command_id=(client, 0), key=data.draw(st.sampled_from("abc")),
                            operation=data.draw(st.sampled_from(("put", "put", "get"))))
                    for client in range(data.draw(st.integers(0, 12)))]
        other = list(commands)
        for _ in range(data.draw(st.integers(0, 4))):
            if len(other) > 1:
                i = data.draw(st.integers(0, len(other) - 2))
                j = data.draw(st.integers(i + 1, len(other) - 1))
                other[i], other[j] = other[j], other[i]
        logs = []
        for sequence in (commands, other):
            log = ExecutionLog()
            for command in sequence:
                if data.draw(st.integers(0, 9)):   # one in ten executed on one side only
                    log.append(command)
            logs.append(log)
        first, second = logs
        assert first.conflicting_order_violations(second) == _grouped_violations(first, second)
        assert second.conflicting_order_violations(first) == _grouped_violations(second, first)
