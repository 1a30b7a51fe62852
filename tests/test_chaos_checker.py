"""Tests for the per-key linearizability checker and the kvstore spec.

The positive control required by the chaos work: the checker must accept
every history a sequential single-client run can produce, and must reject a
library of hand-built known-non-linearizable histories — proving the oracle
has discriminating power before it is trusted to judge protocols.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.chaos import checker
from repro.chaos.checker import check_history
from repro.chaos.history import HistoryTape, Operation
from repro.consensus.command import Command
from repro.kvstore.spec import apply_op
from repro.kvstore.store import KeyValueStore
from repro.sim.simulator import Simulator


def check_operations(operations):
    """Check a flat list of operations through :func:`check_history`."""
    tape = HistoryTape(Simulator(seed=0))
    tape.operations.extend(operations)
    return check_history(tape)


def op(op_id: int, key: str, operation: str, value=None, output=None,
       invoked_at: float = 0.0, responded_at=None, client_id: int = 0) -> Operation:
    """Hand-build one history operation."""
    return Operation(op_id=op_id, client_id=client_id, key=key, operation=operation,
                     value=value, invoked_at=invoked_at, output=output,
                     responded_at=responded_at)


# ---------------------------------------------------------------------------
# Spec <-> real store agreement
# ---------------------------------------------------------------------------

op_strategy = st.tuples(st.sampled_from(["put", "get", "delete"]),
                        st.sampled_from(["a", "b"]),
                        st.one_of(st.none(), st.text(max_size=3)))


class TestSpecMatchesStore:
    @given(ops=st.lists(op_strategy, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_spec_agrees_with_key_value_store(self, ops):
        """The per-key register spec and the real store can never drift apart."""
        store = KeyValueStore()
        registers = {}
        for index, (operation, key, value) in enumerate(ops):
            command = Command(command_id=(0, index), key=key, operation=operation,
                              value=value)
            observed = store.apply(command)
            registers[key], expected = apply_op(registers.get(key), operation, value)
            assert observed == expected
            assert store.get(key) == registers[key]


# ---------------------------------------------------------------------------
# Histories the checker must accept
# ---------------------------------------------------------------------------


class TestCheckerAccepts:
    def test_empty_history(self):
        assert check_operations([]).ok

    def test_sequential_puts_and_gets(self):
        history = [
            op(0, "k", "put", value="v1", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "get", output="v1", invoked_at=2, responded_at=3),
            op(2, "k", "put", value="v2", output="v1", invoked_at=4, responded_at=5),
            op(3, "k", "delete", output="v2", invoked_at=6, responded_at=7),
            op(4, "k", "get", output=None, invoked_at=8, responded_at=9),
        ]
        assert check_operations(history).ok

    def test_concurrent_puts_linearize_in_either_order(self):
        # Both puts overlap; the read pins which one came second.
        history = [
            op(0, "k", "put", value="a", output="b", invoked_at=0, responded_at=10),
            op(1, "k", "put", value="b", output=None, invoked_at=0, responded_at=10,
               client_id=1),
            op(2, "k", "get", output="a", invoked_at=11, responded_at=12),
        ]
        assert check_operations(history).ok

    def test_pending_op_that_never_took_effect(self):
        history = [
            op(0, "k", "put", value="v1", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "put", value="lost", invoked_at=2, responded_at=None),
            op(2, "k", "get", output="v1", invoked_at=5, responded_at=6),
        ]
        assert check_operations(history).ok

    def test_pending_op_that_took_effect_late(self):
        history = [
            op(0, "k", "put", value="v1", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "put", value="late", invoked_at=2, responded_at=None),
            op(2, "k", "get", output="late", invoked_at=50, responded_at=51),
        ]
        assert check_operations(history).ok

    def test_different_clients_at_touching_instants_are_concurrent(self):
        """The same touching-instant shape across two clients carries no
        program order: either linearization is legal."""
        history = [
            op(0, "k", "put", value="a", output=None, invoked_at=0, responded_at=10,
               client_id=7),
            op(1, "k", "get", output=None, invoked_at=10, responded_at=20, client_id=8),
        ]
        assert check_operations(history).ok

    def test_late_response_of_abandoned_op_overlaps_its_successor(self):
        """A command abandoned at a reconnect timeout may respond *after* the
        client's next command; the two genuinely overlap, so the abandoned op
        may linearize second."""
        history = [
            op(0, "k", "put", value="a", output="b", invoked_at=0, responded_at=50,
               client_id=7),
            op(1, "k", "put", value="b", output=None, invoked_at=10, responded_at=20,
               client_id=7),
            op(2, "k", "get", output="a", invoked_at=60, responded_at=70, client_id=7),
        ]
        assert check_operations(history).ok

    def test_keys_are_checked_independently(self):
        history = [
            op(0, "a", "put", value="x", output=None, invoked_at=0, responded_at=1),
            op(1, "b", "put", value="y", output=None, invoked_at=0, responded_at=1,
               client_id=1),
            op(2, "a", "get", output="x", invoked_at=2, responded_at=3),
            op(3, "b", "get", output="y", invoked_at=2, responded_at=3, client_id=1),
        ]
        report = check_operations(history)
        assert report.ok
        assert set(report.key_reports) == {"a", "b"}

    @given(ops=st.lists(op_strategy, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_accepts_every_sequential_single_client_history(self, ops):
        """Positive control: anything one client does sequentially is linearizable."""
        store = KeyValueStore()
        history = []
        now = 0.0
        for index, (operation, key, value) in enumerate(ops):
            command = Command(command_id=(0, index), key=key, operation=operation,
                              value=value)
            output = store.apply(command)
            history.append(op(index, key, operation, value=value, output=output,
                              invoked_at=now, responded_at=now + 1.0))
            now += 2.0
        report = check_operations(history)
        assert report.ok, report.describe()


# ---------------------------------------------------------------------------
# Histories the checker must reject
# ---------------------------------------------------------------------------


class TestCheckerRejects:
    """Library of hand-built known-non-linearizable histories."""

    def assert_rejected(self, history):
        report = check_operations(history)
        assert not report.ok
        assert report.violations, report.describe()

    def test_stale_read_after_completed_put(self):
        self.assert_rejected([
            op(0, "k", "put", value="v1", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "get", output=None, invoked_at=2, responded_at=3),
        ])

    def test_lost_update_both_puts_see_empty(self):
        self.assert_rejected([
            op(0, "k", "put", value="a", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "put", value="b", output=None, invoked_at=2, responded_at=3,
               client_id=1),
        ])

    def test_put_returns_wrong_previous_value(self):
        self.assert_rejected([
            op(0, "k", "put", value="a", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "put", value="b", output="zzz", invoked_at=2, responded_at=3),
        ])

    def test_read_from_the_future(self):
        # The get completed before put(a) was even invoked.
        self.assert_rejected([
            op(0, "k", "get", output="a", invoked_at=0, responded_at=1),
            op(1, "k", "put", value="a", output=None, invoked_at=5, responded_at=6),
        ])

    def test_non_monotonic_reads(self):
        self.assert_rejected([
            op(0, "k", "put", value="v1", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "put", value="v2", output="v1", invoked_at=2, responded_at=3),
            op(2, "k", "get", output="v2", invoked_at=4, responded_at=5),
            op(3, "k", "get", output="v1", invoked_at=6, responded_at=7),
        ])

    def test_same_client_stale_read_at_touching_instants(self):
        """Think-time-zero clients invoke the next op at the exact instant the
        previous one responded; the tie must not dissolve their program order
        (a stale read right after the client's own completed put is still a
        violation)."""
        self.assert_rejected([
            op(0, "k", "put", value="a", output=None, invoked_at=0, responded_at=10,
               client_id=7),
            op(1, "k", "get", output=None, invoked_at=10, responded_at=20, client_id=7),
        ])

    def test_delete_returns_wrong_victim(self):
        self.assert_rejected([
            op(0, "k", "put", value="a", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "delete", output="b", invoked_at=2, responded_at=3),
        ])

    def test_read_sees_value_of_an_op_that_never_happened(self):
        self.assert_rejected([
            op(0, "k", "put", value="real", output=None, invoked_at=0, responded_at=1),
            op(1, "k", "get", output="ghost", invoked_at=2, responded_at=3),
        ])

    def test_violation_only_poisons_its_own_key(self):
        history = [
            op(0, "good", "put", value="x", output=None, invoked_at=0, responded_at=1),
            op(1, "good", "get", output="x", invoked_at=2, responded_at=3),
            op(2, "bad", "put", value="y", output=None, invoked_at=0, responded_at=1),
            op(3, "bad", "get", output=None, invoked_at=2, responded_at=3),
        ]
        report = check_operations(history)
        assert not report.ok
        assert report.key_reports["good"].ok
        assert not report.key_reports["bad"].ok
        assert "bad" in report.describe()


# ---------------------------------------------------------------------------
# Budget / tape mechanics
# ---------------------------------------------------------------------------


class TestBudgetAndTape:
    def test_exhausted_budget_reports_inconclusive_not_ok(self, monkeypatch):
        history = [
            op(0, "k", "put", value="a", output=None, invoked_at=0, responded_at=1),
        ]
        monkeypatch.setattr(checker, "MAX_STATES_PER_KEY", 0)
        report = check_operations(history)
        assert not report.ok
        assert report.inconclusive
        assert not report.violations

    def test_tape_records_invocations_and_responses(self):
        sim = Simulator(seed=1)
        tape = HistoryTape(sim)
        first = tape.invoke(7, "k", "put", "v")
        assert first.is_pending
        sim.run(until=5.0)
        tape.respond(first, None)
        assert first.responded_at == 5.0
        assert tape.completed == [first]
        assert not first.is_pending
        assert tape.per_key() == {"k": [first]}

    def test_tape_rejects_double_response(self):
        import pytest

        tape = HistoryTape(Simulator(seed=1))
        taped = tape.invoke(0, "k", "get", None)
        tape.respond(taped, None)
        with pytest.raises(ValueError, match="already responded"):
            tape.respond(taped, None)
