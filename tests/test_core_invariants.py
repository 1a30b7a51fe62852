"""Tests for the runtime invariant checkers (TLA+ GraphInvariant / Agreement)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandStatus
from repro.core.invariants import (
    check_agreement,
    check_all,
    check_bucket_index,
    check_delivered_closed,
    check_delivery_quiescent,
    check_execution_consistency,
    check_graph_invariant,
    check_mask_width,
    check_timestamp_order,
)
from repro.harness.experiment import ExperimentConfig, attach_clients, build_experiment_cluster
from repro.metrics.collector import MetricsCollector
from repro.sim.network import NetworkConfig
from tests.conftest import build_caesar_cluster, make_command


def run_conflicting_workload(n_commands_per_node: int = 4, seed: int = 1,
                             wait_condition: bool = True):
    sim, _, replicas = build_caesar_cluster(seed=seed, wait_condition=wait_condition)
    commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                for i in range(5) for k in range(n_commands_per_node)]
    for origin, command in commands:
        replicas[origin].submit(command)
    ids = [c.command_id for _, c in commands]
    finished = sim.run_until(
        lambda: all(r.has_executed(cid) for r in replicas for cid in ids),
        deadline=200000)
    assert finished
    return replicas


class TestCheckersOnHealthyRuns:
    def test_all_invariants_hold_after_conflicting_workload(self):
        replicas = run_conflicting_workload()
        assert check_all(replicas) == []

    def test_all_invariants_hold_without_wait_condition(self):
        replicas = run_conflicting_workload(wait_condition=False, seed=3)
        assert check_all(replicas) == []

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold_across_seeds(self, seed):
        replicas = run_conflicting_workload(n_commands_per_node=3, seed=seed)
        assert check_all(replicas) == []


class TestCheckersDetectViolations:
    def test_agreement_violation_detected(self):
        """Two replicas holding different stable timestamps for one command."""
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x")
        replicas[0].history.update(command, LogicalTimestamp(1, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        replicas[1].history.update(command, LogicalTimestamp(9, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        violations = check_agreement(replicas)
        assert len(violations) == 1
        assert "stable at" in violations[0]

    def test_graph_invariant_violation_detected(self):
        """A stable later command missing its earlier conflicting predecessor."""
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        early = make_command(0, 0, key="x")
        late = make_command(1, 0, key="x")
        replica.history.update(early, LogicalTimestamp(1, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(late, LogicalTimestamp(5, 1), set(),
                               CommandStatus.STABLE, Ballot.initial(1))
        violations = check_graph_invariant([replica])
        assert len(violations) == 1
        assert "missing from predecessors" in violations[0]

    def test_graph_invariant_execution_order_violation_detected(self):
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        early = make_command(0, 0, key="x")
        late = make_command(1, 0, key="x")
        replica.history.update(early, LogicalTimestamp(1, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(late, LogicalTimestamp(5, 1), {early.command_id},
                               CommandStatus.STABLE, Ballot.initial(1))
        # Execute them in the wrong order directly.
        replica.execution_log.append(late)
        replica.execution_log.append(early)
        violations = check_graph_invariant([replica])
        assert any("before" in violation for violation in violations)

    def test_execution_consistency_violation_detected(self):
        _, _, replicas = build_caesar_cluster()
        first = make_command(0, 0, key="x")
        second = make_command(1, 0, key="x")
        replicas[0].execution_log.append(first)
        replicas[0].execution_log.append(second)
        replicas[1].execution_log.append(second)
        replicas[1].execution_log.append(first)
        violations = check_execution_consistency(replicas)
        assert len(violations) == 1
        assert "disagree" in violations[0]

    def test_timestamp_order_violation_detected(self):
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        early = make_command(0, 0, key="x")
        late = make_command(1, 0, key="x")
        replica.history.update(early, LogicalTimestamp(7, 0), set(),
                               CommandStatus.STABLE, Ballot.initial(0))
        replica.history.update(late, LogicalTimestamp(2, 1), set(),
                               CommandStatus.STABLE, Ballot.initial(1))
        replica.execution_log.append(early)
        replica.execution_log.append(late)
        violations = check_timestamp_order([replica])
        assert len(violations) == 1

    def test_lost_delivery_wakeup_detected(self):
        """A stable command whose last blocker went away without waking it."""
        _, _, replicas = build_caesar_cluster()
        replica = replicas[0]
        blocker = make_command(0, 0, key="x")
        waiting = make_command(1, 0, key="x")
        entry = replica.history.update(waiting, LogicalTimestamp(5, 1), {blocker.command_id},
                                       CommandStatus.STABLE, Ballot.initial(1))
        assert replica.delivery.on_stable(waiting) == []
        assert check_delivery_quiescent(replicas) == []  # legitimately blocked
        entry.pred_mask = 0  # what a mis-filed index entry amounts to
        violations = check_all(replicas)
        assert len(violations) == 1
        assert "deliverable but was never delivered" in violations[0]
        replica.delivery.retry_pending()
        assert check_delivery_quiescent(replicas) == []

    def test_undelivered_predecessor_of_a_delivered_command_detected(self):
        """The delivered set stops being closed under predecessors."""
        replicas = run_conflicting_workload(n_commands_per_node=2)
        assert check_delivered_closed(replicas) == []
        replica = replicas[3]
        delivered = replica.history.get((0, 0))
        assert replica.delivery.is_delivered(delivered.command_id)
        late = make_command(7, 0, key="hot-0")
        late_entry = replica.history.update(late, LogicalTimestamp(99, 0), set(),
                                            CommandStatus.ACCEPTED, Ballot.initial(0))
        delivered.pred_mask |= 1 << late_entry.index
        violations = check_all(replicas)
        assert len(violations) == 1
        assert violations[0].startswith("node 3: delivered (0, 0) ")
        assert violations[0].endswith("lists undelivered predecessors [(7, 0)]")

    def test_crashed_replicas_are_skipped(self):
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x")
        replicas[0].history.update(command, LogicalTimestamp(1, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        replicas[1].history.update(command, LogicalTimestamp(9, 0), set(),
                                   CommandStatus.STABLE, Ballot.initial(0))
        replicas[1].crashed = True
        assert check_agreement(replicas) == []


def run_ci_call_count_shape():
    """The seeded run CI's call-count step profiles: 0 % conflicts, 1,235 commits."""
    config = ExperimentConfig(protocol="caesar", conflict_rate=0.0, clients_per_site=10,
                              duration_ms=2000.0, warmup_ms=500.0, drain_ms=1000.0, seed=7001,
                              network=NetworkConfig(jitter_ms=3.0))
    cluster = build_experiment_cluster(config)
    pool = attach_clients(cluster, config, MetricsCollector(warmup_ms=config.warmup_ms))
    cluster.start()
    pool.start_all()
    cluster.run(config.warmup_ms + config.duration_ms)
    pool.stop_all()
    cluster.run(config.drain_ms)
    assert cluster.replicas[0].commands_executed == 1235
    return cluster.replicas


@pytest.fixture(scope="module")
def ci_run():
    return run_ci_call_count_shape()


class TestMaskWidth:
    def test_every_mask_is_as_wide_as_its_key_on_the_seeded_ci_run(self, ci_run):
        """Over 1,000 keys and ~4,400 commands per replica, the widest predecessor
        mask is a handful of bits (1,175 with one node-wide interner)."""
        replicas = ci_run
        assert check_mask_width(replicas) == []
        widest = max(entry.pred_mask.bit_length()
                     for replica in replicas for entry in replica.history.entries())
        assert 0 < widest <= 64

    def test_a_mask_wider_than_its_key_is_detected(self):
        replicas = run_conflicting_workload(n_commands_per_node=2)
        assert check_mask_width(replicas) == []
        replica = replicas[2]
        entry = replica.history.get((0, 0))
        width = len(entry.bucket.index_of)
        entry.bucket.delivered |= 1 << (width + 3)
        assert check_all(replicas) == [
            f"node 2: delivered on key 'hot-0' is {width + 4} bits wide, {width} ids interned"]
        entry.pred_mask |= 1 << width
        assert check_mask_width(replicas)[0] == (
            f"node 2: pred_mask of (0, 0) on key 'hot-0' is {width + 1} bits wide, "
            f"{width} ids interned")


class TestBucketIndex:
    def test_every_bucket_agrees_with_its_entries_on_the_seeded_ci_run(self, ci_run):
        """Every id a message named got its entry by the end: ``_bucket_of`` is empty."""
        assert check_bucket_index(ci_run) == []
        assert [len(replica.history._bucket_of) for replica in ci_run] == [0] * 5
        assert [len(replica.history) for replica in ci_run] == [1235] * 5

    def test_an_id_left_in_the_binding_map_beside_its_entry_is_detected(self):
        replicas = run_conflicting_workload(n_commands_per_node=2)
        assert check_bucket_index(replicas) == []
        history = replicas[1].history
        entry = history.get((0, 0))
        history._bucket_of[(0, 0)] = entry.bucket    # what an update that never pops leaves
        assert check_all(replicas) == [
            "node 1: _bucket_of is not the bound ids without an entry: [(0, 0)]"]

    def test_a_collected_id_missing_from_the_binding_map_is_detected(self):
        replicas = run_conflicting_workload(n_commands_per_node=2)
        history = replicas[1].history
        history.remove((0, 0))
        assert check_bucket_index(replicas) == []
        del history._bucket_of[(0, 0)]               # what a remove that never restores leaves
        assert check_bucket_index(replicas) == [
            "node 1: _bucket_of is not the bound ids without an entry: [(0, 0)]"]

    @pytest.mark.parametrize("corrupt, violation", [
        (lambda bucket: setattr(bucket, "keys", [key >> 32 for key in bucket.keys]),
         "sort keys are not its entries' packed keys"),
        (lambda bucket: bucket.keys.insert(1, bucket.keys[0]),
         "sort keys are not strictly increasing"),
        (lambda bucket: bucket.index_of.update({(9, 9): 0}),
         "id_of and index_of are not inverse"),
        (lambda bucket: setattr(bucket.entries[0], "index", bucket.entries[1].index),
         "an entry is not the one its index names"),
        (lambda bucket: setattr(bucket, "write_mask", bucket.all_mask << 1),
         "all_mask / write_mask are not its entries' bits"),
    ], ids=["index-not-packed", "equal-keys", "interner", "entry-index", "write-mask"])
    def test_each_bucket_fact_is_checked(self, corrupt, violation):
        replicas = run_conflicting_workload(n_commands_per_node=2)
        corrupt(replicas[4].history.bucket("hot-1"))
        assert any(found.startswith(f"node 4: key 'hot-1': {violation}")
                   for found in check_bucket_index(replicas))
