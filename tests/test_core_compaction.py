"""Tests for cluster-level history garbage collection (HistoryCompactor).

The compactor removes a command's history entry at every replica once the
command has been delivered by *all* replicas — at that point it can never
influence another decision.  These tests cover the unit-level contract
(removal, deferral while parked, cursor incrementality) and the harness
plumbing (``ClusterConfig.history_gc_ms`` / ``--history-gc``).
"""

from __future__ import annotations

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.delivery import DeliveryManager, HistoryCompactor
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager
from repro.harness.cluster import ClusterConfig, build_cluster
from tests.conftest import make_command

BALLOT = Ballot.initial(0)


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


class FakeReplica:
    """Just enough replica surface for the compactor: history + delivery."""

    def __init__(self) -> None:
        self.history = CommandHistory()
        self.delivery = DeliveryManager(self.history, lambda c: None)
        self.wait_manager = WaitManager(self.history, lambda: 0.0)

    def stable(self, command, timestamp, predecessors=()):
        self.history.update(command, timestamp, set(predecessors),
                            CommandStatus.STABLE, BALLOT)
        self.delivery.on_stable(command)


def make_timers():
    """A ``set_timer`` stub recording (delay, callback) pairs."""
    scheduled = []
    return scheduled, lambda delay, callback: scheduled.append((delay, callback))


class TestCompactorUnit:
    def test_removes_entries_delivered_everywhere(self):
        replicas = [FakeReplica(), FakeReplica()]
        command = make_command(0, 0, key="x")
        for replica in replicas:
            replica.stable(command, ts(1))
        _, set_timer = make_timers()
        compactor = HistoryCompactor(replicas, set_timer, interval_ms=100.0)
        assert compactor.collect() == 1
        assert all(replica.history.get(command.command_id) is None
                   for replica in replicas)
        assert compactor.commands_removed == 1

    def test_keeps_entries_not_delivered_everywhere(self):
        replicas = [FakeReplica(), FakeReplica()]
        command = make_command(0, 0, key="x")
        replicas[0].stable(command, ts(1))  # second replica never delivers
        _, set_timer = make_timers()
        compactor = HistoryCompactor(replicas, set_timer, interval_ms=100.0)
        assert compactor.collect() == 0
        assert replicas[0].history.get(command.command_id) is not None

    def test_collection_is_cursor_incremental(self):
        replicas = [FakeReplica()]
        _, set_timer = make_timers()
        compactor = HistoryCompactor(replicas, set_timer, interval_ms=100.0)
        first = make_command(0, 0, key="x")
        replicas[0].stable(first, ts(1))
        assert compactor.collect() == 1
        # A second pass with no new deliveries removes nothing (the cursor
        # advanced past the already-collected prefix).
        assert compactor.collect() == 0
        second = make_command(0, 1, key="x")
        replicas[0].stable(second, ts(2))
        assert compactor.collect() == 1

    def test_removal_deferred_while_parked_on_key(self):
        replica = FakeReplica()
        command = make_command(0, 0, key="hot")
        replica.stable(command, ts(1))
        # Park a later proposal on the same key: its incremental wait state
        # references bucket entries, so collection must hold off.
        blocker = make_command(1, 0, key="hot")
        replica.history.update(blocker, ts(5), set(), CommandStatus.FAST_PENDING, BALLOT)
        outcomes = []
        replica.wait_manager.evaluate(make_command(2, 0, key="hot"), ts(3),
                                      lambda ok, waited: outcomes.append(ok))
        assert replica.wait_manager.has_parked("hot")
        _, set_timer = make_timers()
        compactor = HistoryCompactor([replica], set_timer, interval_ms=100.0)
        assert compactor.collect() == 0
        assert replica.history.get(command.command_id) is not None
        # Unpark (the blocker finalizes) and the deferred command collects.
        entry = replica.history.update(blocker, ts(5), {command.command_id},
                                       CommandStatus.STABLE, BALLOT)
        replica.wait_manager.notify_entry(entry)
        assert outcomes  # proposal resolved, key no longer parked
        assert compactor.collect() == 1
        assert replica.history.get(command.command_id) is None

    def test_start_arms_periodic_timer(self):
        scheduled, set_timer = make_timers()
        compactor = HistoryCompactor([FakeReplica()], set_timer, interval_ms=250.0)
        compactor.start()
        assert [delay for delay, _ in scheduled] == [250.0]
        scheduled[0][1]()  # fire the tick: collects and re-arms
        assert [delay for delay, _ in scheduled] == [250.0, 250.0]


class TestClusterPlumbing:
    def _drive(self, history_gc_ms):
        config = ClusterConfig(protocol="caesar", seed=11,
                               history_gc_ms=history_gc_ms)
        cluster = build_cluster(config)
        # A conflict-heavy stream: three hot keys shared across all replicas.
        commands = [make_command(i % cluster.size, i // cluster.size,
                                 key=f"hot-{i % 3}", origin=i % cluster.size)
                    for i in range(30)]
        for command in commands:
            cluster.replica(command.origin).submit(command)
        cluster.run_until_executed([c.command_id for c in commands],
                                   deadline_ms=30000)
        return cluster, commands

    def test_build_cluster_without_gc_has_no_compactor(self):
        cluster, _ = self._drive(history_gc_ms=None)
        assert cluster.compactor is None
        assert all(len(r.history) > 0 for r in cluster.replicas)

    def test_gc_collects_delivered_commands_and_preserves_outcomes(self):
        plain, commands = self._drive(history_gc_ms=None)
        collected, _ = self._drive(history_gc_ms=100.0)
        assert collected.compactor is not None
        assert collected.compactor.commands_removed > 0
        # Every command still executed on every replica, in an order
        # consistent with the non-collected run (same conflict ordering).
        for replica in collected.replicas:
            for command in commands:
                assert replica.has_executed(command.command_id)
        assert collected.check_consistency() == []
        # Histories actually shrank relative to the uncollected run.
        assert (sum(len(r.history) for r in collected.replicas)
                < sum(len(r.history) for r in plain.replicas))

    def test_experiment_config_plumbs_history_gc(self):
        from repro.harness.experiment import ExperimentConfig, run_experiment

        result = run_experiment(ExperimentConfig(
            protocol="caesar", conflict_rate=0.3, clients_per_site=2,
            duration_ms=1500.0, warmup_ms=500.0, history_gc_ms=200.0))
        assert result.cluster.compactor is not None
        assert result.cluster.compactor.commands_removed > 0
        assert result.consistency_violations == 0

    @pytest.mark.parametrize("interval_ms", [0.0, -50.0])
    def test_non_positive_interval_is_rejected_not_spun_on(self, interval_ms):
        # Regression: a 0 ms interval re-armed the collection timer at the
        # same virtual instant forever, so `repro run --history-gc 0` hung.
        with pytest.raises(ValueError, match="history GC interval must be > 0"):
            build_cluster(ClusterConfig(history_gc_ms=interval_ms))
