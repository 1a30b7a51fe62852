"""Unit tests for predecessor computation and the wait condition (Figure 3)."""

from __future__ import annotations

import pytest

from repro.consensus.ballots import Ballot
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from tests.conftest import evaluate_wait, make_command, ts, write_entry


def compute_predecessors(history, command, timestamp, whitelist):
    """The ids :func:`compute_predecessor_mask` answers, whitelist given as ids."""
    whitelist_mask = None if whitelist is None else history.mask_from_ids(whitelist, command.key)
    mask = compute_predecessor_mask(history, command, timestamp,
                                    history.get(command.command_id), whitelist_mask)
    return set(history.ids_from_mask(mask, command.key))


BALLOT = Ballot.initial(0)


class TestComputePredecessors:
    @pytest.mark.parametrize("key, counter, status, whitelist, included", [
        ("x", 1, CommandStatus.FAST_PENDING, None, True),
        ("x", 9, CommandStatus.FAST_PENDING, None, False),
        ("y", 1, CommandStatus.FAST_PENDING, None, False),
        ("x", 1, CommandStatus.FAST_PENDING, "it", True),
        ("x", 1, CommandStatus.FAST_PENDING, "none", False),
        ("x", 1, CommandStatus.STABLE, "none", True),
    ], ids=["earlier-conflicting-included", "later-conflicting-excluded",
            "non-conflicting-excluded", "whitelist-forces-a-fast-pending-one",
            "whitelist-excludes-a-fast-pending-one-it-omits",
            "whitelist-keeps-a-decided-one"])
    def test_one_command_already_in_the_history(self, key, counter, status, whitelist,
                                                included):
        """Whether a command in the history is a predecessor of ``x`` at 5: an
        earlier conflicting one is; with a whitelist, a fast-pending one only if
        listed, a decided one always."""
        history = CommandHistory()
        old = make_command(0, 0, key=key)
        write_entry(history, old, ts(counter), set(), status, BALLOT)
        listed = {"it": frozenset({old.command_id}), "none": frozenset(), None: None}[whitelist]
        found = compute_predecessors(history, make_command(1, 0, key="x"), ts(5), listed)
        assert found == ({old.command_id} if included else set())


class ManualClock:
    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


def run_wait(history, manager: WaitManager, command, timestamp, outcomes: list) -> None:
    """WAIT as a handler drives it: the answer in the call, or a callback later,
    each with the wait the manager has summed by then (one proposal per test)."""
    verdict = evaluate_wait(manager, history, command, timestamp,
                            lambda ok: outcomes.append((ok, manager.total_wait_ms)))
    if verdict is not None:
        outcomes.append((verdict, manager.total_wait_ms))


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

    def early_behind_later(self, status=CommandStatus.FAST_PENDING, enabled: bool = True):
        """``later`` on key x at timestamp 10 with ``status``; ``early`` not yet proposed."""
        history, clock, manager = self.make_manager(enabled)
        early, later = make_command(0, 0, key="x"), make_command(9, 0, key="x")
        write_entry(history, later, ts(10), set(), status, BALLOT)
        return history, clock, manager, early, later

    def test_pending_higher_timestamp_conflict_parks_proposal(self):
        """Out-of-order reception (Figure 2a): the earlier command must wait."""
        history, _, manager, early, _ = self.early_behind_later()
        outcomes = []
        run_wait(history, manager, early, ts(3), outcomes)
        assert outcomes == []
        assert manager.parked == 1

    def test_parked_proposal_resolves_ok_when_included_in_predecessors(self):
        """If the later command eventually lists us as a predecessor, WAIT returns OK."""
        history, clock, manager, early, later = self.early_behind_later()
        outcomes = []
        run_wait(history, manager, early, ts(3), outcomes)
        clock.value = 40.0
        write_entry(history, later, ts(10), {early.command_id}, CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == [(True, 40.0)]
        assert manager.parked == 0
        assert manager.total_waits == 1
        assert manager.total_wait_ms == pytest.approx(40.0)

    def test_parked_proposal_resolves_nack_when_excluded(self):
        """Figure 2b: the later command decides without us; WAIT returns NACK."""
        history, _, manager, early, later = self.early_behind_later()
        outcomes = []
        run_wait(history, manager, early, ts(3), outcomes)
        write_entry(history, later, ts(10), set(), CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == [(False, 0.0)]

    def test_immediate_nack_when_conflict_already_stable(self):
        history, _, manager, early, _ = self.early_behind_later(CommandStatus.STABLE)
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
        history, _, manager, early, _ = self.early_behind_later(enabled=False)
        outcomes = []
        run_wait(history, manager, early, ts(3), outcomes)
        assert outcomes == [(False, 0.0)]

    def test_notify_change_on_other_key_is_noop(self):
        history, _, manager, early, _ = self.early_behind_later()
        outcomes = []
        run_wait(history, manager, early, ts(3), outcomes)
        manager.notify_change("unrelated")
        assert outcomes == []

    def test_drop_command_removes_parked_proposal(self):
        history, _, manager, early, _ = self.early_behind_later()
        run_wait(history, manager, early, ts(3), [])
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
                      lambda ok: outcomes.append((ok, manager.total_wait_ms)))
        write_entry(history, blocker_one, ts(10), {early.command_id}, CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == []
        write_entry(history, blocker_two, ts(11), {early.command_id}, CommandStatus.STABLE, BALLOT)
        manager.notify_change("x")
        assert outcomes == [(True, 0.0)]
