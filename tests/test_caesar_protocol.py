"""Integration tests for the CAESAR protocol on the simulated substrate.

These tests run real five-node clusters and check the paper's claims at the
protocol level: fast decisions in two communication delays, slow decisions
when timestamps are rejected, Generalized-Consensus consistency, and the
behaviour of the wait condition.
"""

from __future__ import annotations

import pytest

from repro.consensus.command import Command
from repro.consensus.interface import DecisionKind
from repro.core.history import CommandStatus
from tests.conftest import build_caesar_cluster, make_command


def submit_and_run(sim, replicas, commands, deadline_ms=30000):
    """Submit (replica_index, command) pairs and run until all are executed everywhere."""
    for origin, command in commands:
        replicas[origin].submit(command)
    ids = [c.command_id for _, c in commands]
    done = sim.run_until(
        lambda: all(r.has_executed(cid) for r in replicas if not r.crashed for cid in ids),
        deadline=deadline_ms)
    return done


class TestFastPath:
    def test_single_command_decided_fast(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        command = make_command(0, 0, key="a", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        decision = replicas[0].decisions[command.command_id]
        assert decision.kind is DecisionKind.FAST
        assert replicas[0].stats.fast_decisions == 1
        assert replicas[0].stats.slow_decisions == 0

    @pytest.mark.parametrize("origin", range(5))
    def test_fast_decision_latency_is_two_delays(self, caesar_cluster, topology, origin):
        """A non-conflicting command completes in one round trip to the fast quorum
        of 4 nearest replicas, plus the modelled CPU and local deliveries."""
        sim, _, replicas = caesar_cluster()
        command = make_command(0, 0, key="a", origin=origin)
        assert submit_and_run(sim, replicas, [(origin, command)])
        latency = replicas[origin].decisions[command.command_id].latency_ms
        bound = topology.quorum_latency(origin, 4)
        assert bound <= latency <= bound + 0.25

    def test_non_conflicting_commands_all_fast(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = [(i, make_command(i, 0, key=f"key-{i}", origin=i)) for i in range(5)]
        assert submit_and_run(sim, replicas, commands)
        total_fast = sum(r.stats.fast_decisions for r in replicas)
        assert total_fast == 5
        assert sum(r.stats.slow_decisions for r in replicas) == 0

    def test_all_replicas_execute_every_command(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = [(i, make_command(i, 0, key="same", origin=i)) for i in range(5)]
        assert submit_and_run(sim, replicas, commands)
        for replica in replicas:
            assert replica.commands_executed == 5

    def test_client_callback_receives_result(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        results = []
        first = make_command(0, 0, key="k", origin=0)
        second = Command(command_id=(0, 1), key="k", operation="get", origin=0)
        replicas[0].submit(first, callback=lambda r: results.append(r))
        sim.run_until(lambda: len(results) == 1, deadline=10000)
        replicas[0].submit(second, callback=lambda r: results.append(r))
        sim.run_until(lambda: len(results) == 2, deadline=20000)
        assert results[0].value is None            # first write saw no prior value
        assert results[1].value == "v0.0"          # read observes the write


class TestConflictingCommands:
    def test_conflicting_commands_same_order_everywhere(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = []
        for i in range(5):
            for k in range(4):
                commands.append((i, make_command(i, k, key=f"hot-{k % 2}", origin=i)))
        assert submit_and_run(sim, replicas, commands)
        for i in range(5):
            for j in range(i + 1, 5):
                assert replicas[i].execution_log.conflicting_order_violations(
                    replicas[j].execution_log) == []

    def test_state_machines_converge(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = []
        for i in range(5):
            for k in range(5):
                commands.append((i, make_command(i, k, key=f"hot-{k % 3}", origin=i)))
        assert submit_and_run(sim, replicas, commands)
        snapshots = [r.state_machine.snapshot() for r in replicas]
        assert all(snapshot == snapshots[0] for snapshot in snapshots)

    def test_conflicting_pair_ordered_by_final_timestamps(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        first = make_command(0, 0, key="x", origin=0)
        second = make_command(4, 0, key="x", origin=4)
        assert submit_and_run(sim, replicas, [(0, first), (4, second)])
        ts_first = replicas[0].history.get(first.command_id).timestamp
        ts_second = replicas[0].history.get(second.command_id).timestamp
        expected = [first.command_id, second.command_id] if ts_first < ts_second \
            else [second.command_id, first.command_id]
        for replica in replicas:
            order = [c.command_id for c in replica.execution_log
                     if c.command_id in (first.command_id, second.command_id)]
            assert order == expected

    def test_predecessor_invariant_for_stable_conflicting_commands(self, caesar_cluster):
        """Theorem 1: conflicting stable commands with T' < T imply predecessor membership."""
        sim, _, replicas = caesar_cluster()
        commands = []
        for i in range(5):
            for k in range(4):
                commands.append((i, make_command(i, k, key="single-hot-key", origin=i)))
        assert submit_and_run(sim, replicas, commands)
        for replica in replicas:
            stable = list(replica.history.stable_entries())
            for first in stable:
                for second in stable:
                    if first is second:
                        continue
                    if not first.command.conflicts_with(second.command):
                        continue
                    if first.timestamp < second.timestamp:
                        # BREAKLOOP may have pruned the edge only if already delivered
                        # in order; the delivery order itself is checked elsewhere.
                        pos_first = replica.execution_log.position(first.command_id)
                        pos_second = replica.execution_log.position(second.command_id)
                        assert pos_first is not None and pos_second is not None
                        assert pos_first < pos_second

    def test_heavy_single_key_contention_completes(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = [(i, make_command(i, k, key="the-one-key", origin=i))
                    for i in range(5) for k in range(10)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        assert all(r.commands_executed == 50 for r in replicas)
        violations = sum(
            len(replicas[i].execution_log.conflicting_order_violations(replicas[j].execution_log))
            for i in range(5) for j in range(i + 1, 5))
        assert violations == 0


class TestSlowPath:
    def test_rejection_leads_to_retry_and_slow_decision(self, caesar_cluster):
        """Figure 2(b): a rejected timestamp forces the retry phase (slow decision)."""
        sim, network, replicas = caesar_cluster()
        # Force heavy contention from every site on one key at the same instant,
        # with the wait condition disabled rejections become much more likely.
        sim2, network2, replicas2 = build_caesar_cluster(wait_condition=False)
        commands = [(i, make_command(i, k, key="hot", origin=i))
                    for i in range(5) for k in range(6)]
        for origin, command in commands:
            replicas2[origin].submit(command)
        ids = [c.command_id for _, c in commands]
        assert sim2.run_until(
            lambda: all(r.has_executed(cid) for r in replicas2 for cid in ids),
            deadline=120000)
        assert sum(r.stats.slow_decisions for r in replicas2) > 0
        assert sum(r.stats.retries for r in replicas2) > 0

    def test_decided_commands_leave_no_leader_state(self):
        """Fast or retried, a leader forgets a command once its STABLE is out."""
        sim, _, replicas = build_caesar_cluster(wait_condition=False)
        commands = [(i, make_command(i, k, key="hot" if k < 4 else f"own-{i}-{k}", origin=i))
                    for i in range(5) for k in range(6)]
        for origin, command in commands:
            replicas[origin].submit(command)
        ids = [c.command_id for _, c in commands]
        assert sim.run_until(
            lambda: all(r.has_executed(cid) for r in replicas for cid in ids),
            deadline=120000)
        assert sum(r.stats.retries for r in replicas) > 0
        assert sum(r.stats.fast_decisions for r in replicas) > 0
        assert [len(r.leader_states) for r in replicas] == [0] * 5

    def test_slow_decisions_preserve_consistency(self):
        sim, _, replicas = build_caesar_cluster(wait_condition=False)
        commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                    for i in range(5) for k in range(6)]
        for origin, command in commands:
            replicas[origin].submit(command)
        ids = [c.command_id for _, c in commands]
        assert sim.run_until(
            lambda: all(r.has_executed(cid) for r in replicas for cid in ids),
            deadline=120000)
        violations = sum(
            len(replicas[i].execution_log.conflicting_order_violations(replicas[j].execution_log))
            for i in range(5) for j in range(i + 1, 5))
        assert violations == 0

    def test_wait_condition_reduces_slow_decisions(self):
        """The paper's key claim: the wait condition avoids slow decisions under conflicts."""
        def run(wait_condition: bool) -> float:
            sim, _, replicas = build_caesar_cluster(wait_condition=wait_condition, seed=7)
            commands = [(i, make_command(i, k, key=f"hot-{k % 3}", origin=i))
                        for i in range(5) for k in range(8)]
            for origin, command in commands:
                replicas[origin].submit(command)
            ids = [c.command_id for _, c in commands]
            assert sim.run_until(
                lambda: all(r.has_executed(cid) for r in replicas for cid in ids),
                deadline=200000)
            slow = sum(r.stats.slow_decisions for r in replicas)
            fast = sum(r.stats.fast_decisions for r in replicas)
            return slow / (slow + fast)

        with_wait = run(True)
        without_wait = run(False)
        assert with_wait <= without_wait

    def test_wait_times_recorded_for_parked_proposals(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = [(i, make_command(i, k, key="contended", origin=i))
                    for i in range(5) for k in range(6)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        total_samples = sum(len(r.wait_time_samples) for r in replicas)
        assert total_samples > 0
        assert all(sample >= 0 for r in replicas for sample in r.wait_time_samples)


class TestBallotFiltering:
    def test_stale_ballot_messages_ignored(self, caesar_cluster, make_cmd):
        sim, _, replicas = caesar_cluster()
        command = make_cmd(0, 0, key="x", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        # Pretend a higher ballot exists for this command on replica 1.
        from repro.consensus.ballots import Ballot
        replicas[1].ballots[command.command_id] = Ballot(5, 1)
        entry_before = replicas[1].history.get(command.command_id)
        from repro.core.messages import FastPropose
        from repro.consensus.timestamps import LogicalTimestamp
        replicas[1].handle_message(0, FastPropose(command=command, ballot=Ballot(0, 0),
                                                  timestamp=LogicalTimestamp(99, 0),
                                                  whitelist=None))
        entry_after = replicas[1].history.get(command.command_id)
        assert entry_after.timestamp == entry_before.timestamp
        assert entry_after.status is CommandStatus.STABLE
