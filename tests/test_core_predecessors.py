"""Unit tests for predecessor computation and the wait condition (Figure 3)."""

from __future__ import annotations

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from tests.conftest import evaluate_wait, make_command, write_entry


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


def compute_predecessors(history, command, timestamp, whitelist):
    """The ids :func:`compute_predecessor_mask` answers, whitelist given as ids."""
    whitelist_mask = None if whitelist is None else history.mask_from_ids(whitelist, command.key)
    mask = compute_predecessor_mask(history, command, timestamp,
                                    history.get(command.command_id), whitelist_mask)
    return set(history.ids_from_mask(mask, command.key))


BALLOT = Ballot.initial(0)


class TestComputePredecessors:
    def test_earlier_conflicting_commands_are_predecessors(self):
        history = CommandHistory()
        old = make_command(0, 0, key="x")
        write_entry(history, old, ts(1), set(), CommandStatus.FAST_PENDING, BALLOT)
        new = make_command(1, 0, key="x")
        assert compute_predecessors(history, new, ts(5), None) == {old.command_id}

    def test_later_conflicting_commands_excluded(self):
        history = CommandHistory()
        future = make_command(0, 0, key="x")
        write_entry(history, future, ts(9), set(), CommandStatus.FAST_PENDING, BALLOT)
        new = make_command(1, 0, key="x")
        assert compute_predecessors(history, new, ts(5), None) == set()

    def test_non_conflicting_commands_excluded(self):
        history = CommandHistory()
        other = make_command(0, 0, key="y")
        write_entry(history, other, ts(1), set(), CommandStatus.FAST_PENDING, BALLOT)
        new = make_command(1, 0, key="x")
        assert compute_predecessors(history, new, ts(5), None) == set()

    def test_whitelist_forces_membership(self):
        """A whitelisted command is a predecessor even if only fast-pending."""
        history = CommandHistory()
        pending = make_command(0, 0, key="x")
        write_entry(history, pending, ts(1), set(), CommandStatus.FAST_PENDING, BALLOT)
        new = make_command(1, 0, key="x")
        whitelist = frozenset({pending.command_id})
        assert compute_predecessors(history, new, ts(5), whitelist) == {pending.command_id}

    def test_whitelist_excludes_fast_pending_not_listed(self):
        """With a whitelist, a fast-pending command outside it is not a predecessor."""
        history = CommandHistory()
        pending = make_command(0, 0, key="x")
        write_entry(history, pending, ts(1), set(), CommandStatus.FAST_PENDING, BALLOT)
        new = make_command(1, 0, key="x")
        assert compute_predecessors(history, new, ts(5), frozenset()) == set()

    def test_whitelist_keeps_decided_commands(self):
        """With a whitelist, accepted/stable earlier commands stay predecessors."""
        history = CommandHistory()
        stable = make_command(0, 0, key="x")
        write_entry(history, stable, ts(1), set(), CommandStatus.STABLE, BALLOT)
        new = make_command(1, 0, key="x")
        assert compute_predecessors(history, new, ts(5), frozenset()) == {stable.command_id}


class ManualClock:
    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


def run_wait(history, manager: WaitManager, command, timestamp, outcomes: list) -> None:
    """WAIT as a handler drives it: the answer in the call, or a callback later."""
    verdict = evaluate_wait(manager, history, command, timestamp,
                            lambda ok, waited: outcomes.append((ok, waited)))
    if verdict is not None:
        outcomes.append((verdict, 0.0))


class TestWaitCondition:
    def make_manager(self, enabled: bool = True):
        history = CommandHistory()
        clock = ManualClock()
        return history, clock, WaitManager(history, clock, enabled=enabled)

    def test_no_conflicts_resolves_ok_immediately(self):
        history, clock, manager = self.make_manager()
        outcomes = []
        run_wait(history, manager, make_command(0, 0, key="x"), ts(3), outcomes)
        assert outcomes == [(True, 0.0)]

    def test_pending_higher_timestamp_conflict_parks_proposal(self):
        """Out-of-order reception (Figure 2a): the earlier command must wait."""
        history, clock, manager = self.make_manager()
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        evaluate_wait(manager, history, make_command(0, 0, key="x"), ts(3),
                      lambda ok, waited: outcomes.append((ok, waited)))
        assert outcomes == []
        assert manager.parked == 1

    def test_parked_proposal_resolves_ok_when_included_in_predecessors(self):
        """If the later command eventually lists us as a predecessor, WAIT returns OK."""
        history, clock, manager = self.make_manager()
        early = make_command(0, 0, key="x")
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        evaluate_wait(manager, history, early, ts(3),
                      lambda ok, waited: outcomes.append((ok, waited)))
        clock.value = 40.0
        write_entry(history, later, ts(10), {early.command_id}, CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == [(True, 40.0)]
        assert manager.parked == 0
        assert manager.total_waits == 1
        assert manager.total_wait_ms == pytest.approx(40.0)

    def test_parked_proposal_resolves_nack_when_excluded(self):
        """Figure 2b: the later command decides without us; WAIT returns NACK."""
        history, clock, manager = self.make_manager()
        early = make_command(0, 0, key="x")
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        evaluate_wait(manager, history, early, ts(3),
                      lambda ok, waited: outcomes.append((ok, waited)))
        write_entry(history, later, ts(10), set(), CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == [(False, 0.0)]

    def test_immediate_nack_when_conflict_already_stable(self):
        history, clock, manager = self.make_manager()
        early = make_command(0, 0, key="x")
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.STABLE, BALLOT)
        outcomes = []
        run_wait(history, manager, early, ts(3), outcomes)
        assert outcomes == [(False, 0.0)]

    def test_lower_timestamp_conflict_does_not_block(self):
        """Only conflicts with *greater* timestamps can block or reject a proposal."""
        history, clock, manager = self.make_manager()
        older = make_command(9, 0, key="x")
        write_entry(history, older, ts(1), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        run_wait(history, manager, make_command(0, 0, key="x"), ts(3), outcomes)
        assert outcomes == [(True, 0.0)]

    def test_disabled_wait_condition_rejects_instead_of_parking(self):
        """Ablation mode: proposals that would wait are rejected immediately."""
        history, clock, manager = self.make_manager(enabled=False)
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        run_wait(history, manager, make_command(0, 0, key="x"), ts(3), outcomes)
        assert outcomes == [(False, 0.0)]

    def test_notify_change_on_other_key_is_noop(self):
        history, clock, manager = self.make_manager()
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        evaluate_wait(manager, history, make_command(0, 0, key="x"), ts(3),
                      lambda ok, waited: outcomes.append((ok, waited)))
        manager.notify_change("unrelated")
        assert outcomes == []

    def test_drop_command_removes_parked_proposal(self):
        history, clock, manager = self.make_manager()
        early = make_command(0, 0, key="x")
        later = make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        evaluate_wait(manager, history, early, ts(3), lambda ok, waited: None)
        assert manager.parked == 1
        manager.drop_command(early.command_id, "x")
        assert manager.parked == 0

    def test_multiple_blockers_all_must_clear(self):
        history, clock, manager = self.make_manager()
        early = make_command(0, 0, key="x")
        blocker_one = make_command(8, 0, key="x")
        blocker_two = make_command(9, 0, key="x")
        write_entry(history, blocker_one, ts(10), set(), CommandStatus.FAST_PENDING, BALLOT)
        write_entry(history, blocker_two, ts(11), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        evaluate_wait(manager, history, early, ts(3),
                      lambda ok, waited: outcomes.append((ok, waited)))
        write_entry(history, blocker_one, ts(10), {early.command_id}, CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == []
        write_entry(history, blocker_two, ts(11), {early.command_id}, CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == [(True, 0.0)]
