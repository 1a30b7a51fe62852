"""Integration and unit tests for the EPaxos baseline."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.epaxos import EPaxosReplica
from repro.consensus.interface import DecisionKind
from repro.harness.experiment import ExperimentConfig, run_experiment
from tests.conftest import build_replicas, ignore, make_command, order_violations, submit_and_run


class TestFastPath:
    def test_non_conflicting_command_commits_fast(self):
        sim, _, replicas = build_replicas(EPaxosReplica)
        command = make_command(0, 0, key="a", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        assert replicas[0].stats.fast_decisions == 1
        assert replicas[0].stats.slow_decisions == 0
        assert replicas[0].decisions[command.command_id].kind is DecisionKind.FAST

    @pytest.mark.parametrize("origin", range(5))
    def test_fast_path_uses_smaller_quorum_than_caesar(self, topology, origin):
        """EPaxos' fast decision needs only the fast quorum of 3 nearest replicas."""
        sim, _, replicas = build_replicas(EPaxosReplica)
        command = make_command(0, 0, key="a", origin=origin)
        assert submit_and_run(sim, replicas, [(origin, command)])
        latency = replicas[origin].decisions[command.command_id].latency_ms
        bound = topology.quorum_latency(origin, 3)
        assert bound <= latency <= bound + 0.25

    def test_all_replicas_execute(self):
        sim, _, replicas = build_replicas(EPaxosReplica)
        commands = [(i, make_command(i, 0, key=f"k{i}", origin=i)) for i in range(5)]
        assert submit_and_run(sim, replicas, commands)
        assert all(r.commands_executed == 5 for r in replicas)


class TestSlowPath:
    def test_dependency_disagreement_forces_slow_path(self):
        """Concurrent conflicting commands from distant sites take the slow path."""
        sim, _, replicas = build_replicas(EPaxosReplica, seed=2)
        commands = [(i, make_command(i, k, key="hot", origin=i))
                    for i in range(5) for k in range(6)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        slow = sum(r.stats.slow_decisions for r in replicas)
        assert slow > 0

    def test_conflicting_order_consistent_across_replicas(self):
        sim, _, replicas = build_replicas(EPaxosReplica, seed=3)
        commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                    for i in range(5) for k in range(5)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        assert order_violations(replicas) == []

    def test_state_machines_converge(self):
        sim, _, replicas = build_replicas(EPaxosReplica, seed=4)
        commands = [(i, make_command(i, k, key=f"hot-{k % 3}", origin=i))
                    for i in range(5) for k in range(4)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        snapshots = [r.state_machine.snapshot() for r in replicas]
        assert all(s == snapshots[0] for s in snapshots)

    def test_decided_instances_leave_no_leader_state(self):
        """Fast or slow, a leader forgets an instance once its Commit is out."""
        sim, _, replicas = build_replicas(EPaxosReplica, seed=2)
        commands = [(i, make_command(i, k, key="hot" if k < 4 else f"own-{i}-{k}", origin=i))
                    for i in range(5) for k in range(6)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        assert sum(r.stats.slow_decisions for r in replicas) > 0
        assert sum(r.stats.fast_decisions for r in replicas) > 0
        sim.run(until=sim.now + 2000.0)  # late replies find no state and are ignored
        assert [len(r._leader_states) for r in replicas] == [0] * 5
        assert sum(r.stats.fast_decisions + r.stats.slow_decisions for r in replicas) == 30


class TestModelledCostGolden:
    def test_seeded_run_charges_exactly_what_it_did(self):
        """The dependency-graph walk is *modelled* CPU: pin what a seeded run charges.

        ``graph_nodes_visited`` feeds ``consume_cpu`` and so the virtual clock,
        the event count and the execution order of every EPaxos figure cell.
        An "optimisation" that answers the same question while visiting (and
        charging) fewer nodes moves all three; it fails here instead of in the
        nightly record gate.  Values taken at the commit before PR 21.
        """
        result = run_experiment(ExperimentConfig(
            protocol="epaxos", conflict_rate=0.5, clients_per_site=10, duration_ms=1500.0,
            warmup_ms=250.0, drain_ms=2000.0, seed=21))
        replicas = result.cluster.replicas
        assert [r.stats.graph_nodes_visited for r in replicas] == [3031, 4761, 2737, 2792, 2555]
        assert result.cluster.sim.steps_executed == 23615
        assert (result.fast_decisions, result.slow_decisions) == (900, 49)
        order = [command.command_id for command in replicas[0].execution_log]
        assert len(order) == 949
        assert order[:6] == [(3, 0), (2, 0), (7, 0), (1, 0), (0, 0), (6, 0)]
        assert hashlib.sha256(repr(order).encode()).hexdigest() == (
            "14d88e14d03b6292124c3c8993a23b65f81f8ae592d2beadddb20a70606b8dd4")
        assert result.consistency_violations == 0


class TestRecovery:
    def test_instance_recovered_after_leader_crash(self):
        sim, _, replicas = build_replicas(EPaxosReplica, recovery=True, seed=6)
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        sim.run(until=sim.now + 40.0)  # PreAccepts delivered, commit not yet sent
        replicas[0].crash()
        done = sim.run_until(
            lambda: all(r.has_executed(command.command_id)
                        for r in replicas if not r.crashed),
            deadline=60000)
        assert done
        assert sum(r.stats.recoveries for r in replicas if not r.crashed) >= 1
        # The round that committed dropped its state, and the Commit it sent
        # dropped every other survivor's recovery and leader round.
        survivors = [r for r in replicas if not r.crashed]
        assert [(len(r._leader_states), len(r._recoveries)) for r in survivors] == [(0, 0)] * 4

    def test_crash_of_follower_does_not_block(self):
        sim, _, replicas = build_replicas(EPaxosReplica, recovery=True, seed=8)
        replicas[4].crash()
        commands = [(0, make_command(0, k, key="x", origin=0)) for k in range(3)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=60000)
