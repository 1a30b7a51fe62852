"""Integration and unit tests for the EPaxos baseline."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.epaxos import (
    Accept,
    AcceptReply,
    Commit,
    EPaxosReplica,
    InstanceStatus,
    PreAccept,
    PreAcceptReply,
    Prepare,
    PrepareReply,
)
from repro.consensus.ballots import Ballot
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import ec2_five_sites, uniform_topology
from tests.conftest import make_command


def build_epaxos_cluster(n: int = 5, seed: int = 1, recovery: bool = False, topology=None):
    topology = topology or (ec2_five_sites() if n == 5 else uniform_topology(n, rtt_ms=40.0))
    sim = Simulator(seed=seed)
    network = Network(sim, topology)
    quorums = QuorumSystem.for_cluster(n)
    replicas = [EPaxosReplica(i, sim, network, quorums, KeyValueStore(),
                              recovery_enabled=recovery) for i in range(n)]
    if recovery:
        for replica in replicas:
            replica.start()
    return sim, network, replicas


def submit_and_run(sim, replicas, commands, deadline_ms=60000):
    for origin, command in commands:
        replicas[origin].submit(command)
    ids = [c.command_id for _, c in commands]
    return sim.run_until(
        lambda: all(r.has_executed(cid) for r in replicas if not r.crashed for cid in ids),
        deadline=deadline_ms)


class TestFastPath:
    def test_non_conflicting_command_commits_fast(self):
        sim, _, replicas = build_epaxos_cluster()
        command = make_command(0, 0, key="a", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        assert replicas[0].stats.fast_decisions == 1
        assert replicas[0].stats.slow_decisions == 0
        assert replicas[0].decisions[command.command_id].kind is DecisionKind.FAST

    @pytest.mark.parametrize("origin", range(5))
    def test_fast_path_uses_smaller_quorum_than_caesar(self, topology, origin):
        """EPaxos' fast decision needs only the fast quorum of 3 nearest replicas."""
        sim, _, replicas = build_epaxos_cluster()
        command = make_command(0, 0, key="a", origin=origin)
        assert submit_and_run(sim, replicas, [(origin, command)])
        latency = replicas[origin].decisions[command.command_id].latency_ms
        bound = topology.quorum_latency(origin, 3)
        assert bound <= latency <= bound + 0.25

    def test_all_replicas_execute(self):
        sim, _, replicas = build_epaxos_cluster()
        commands = [(i, make_command(i, 0, key=f"k{i}", origin=i)) for i in range(5)]
        assert submit_and_run(sim, replicas, commands)
        assert all(r.commands_executed == 5 for r in replicas)


class TestSlowPath:
    def test_dependency_disagreement_forces_slow_path(self):
        """Concurrent conflicting commands from distant sites take the slow path."""
        sim, _, replicas = build_epaxos_cluster(seed=2)
        commands = [(i, make_command(i, k, key="hot", origin=i))
                    for i in range(5) for k in range(6)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        slow = sum(r.stats.slow_decisions for r in replicas)
        assert slow > 0

    def test_conflicting_order_consistent_across_replicas(self):
        sim, _, replicas = build_epaxos_cluster(seed=3)
        commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                    for i in range(5) for k in range(5)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        for i in range(5):
            for j in range(i + 1, 5):
                assert replicas[i].execution_log.conflicting_order_violations(
                    replicas[j].execution_log) == []

    def test_state_machines_converge(self):
        sim, _, replicas = build_epaxos_cluster(seed=4)
        commands = [(i, make_command(i, k, key=f"hot-{k % 3}", origin=i))
                    for i in range(5) for k in range(4)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        snapshots = [r.state_machine.snapshot() for r in replicas]
        assert all(s == snapshots[0] for s in snapshots)

    def test_decided_instances_leave_no_leader_state(self):
        """Fast or slow, a leader forgets an instance once its Commit is out."""
        sim, _, replicas = build_epaxos_cluster(seed=2)
        commands = [(i, make_command(i, k, key="hot" if k < 4 else f"own-{i}-{k}", origin=i))
                    for i in range(5) for k in range(6)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        assert sum(r.stats.slow_decisions for r in replicas) > 0
        assert sum(r.stats.fast_decisions for r in replicas) > 0
        sim.run(until=sim.now + 2000.0)  # late replies find no state and are ignored
        assert [len(r._leader_states) for r in replicas] == [0] * 5
        assert sum(r.stats.fast_decisions + r.stats.slow_decisions for r in replicas) == 30

    def test_graph_execution_visits_dependencies(self):
        sim, _, replicas = build_epaxos_cluster(seed=5)
        commands = [(i, make_command(i, k, key="hot", origin=i))
                    for i in range(3) for k in range(3)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=120000)
        assert sum(r.stats.graph_nodes_visited for r in replicas) > 0


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
        sim, _, replicas = build_epaxos_cluster(recovery=True, seed=6)
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command)
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

    def test_unknown_instance_recovered_as_noop(self):
        """If no live replica knows the command, recovery commits a no-op."""
        sim, _, replicas = build_epaxos_cluster(recovery=True, seed=7)
        command = make_command(0, 0, key="x", origin=0)
        # Simulate replica 1 having heard only a rumor of the instance: it has a
        # pre-accepted entry but nobody else does, then the leader crashes.
        replicas[0].submit(command)
        sim.run(until=sim.now + 3.0)  # only the closest site (Ohio) may have it
        replicas[0].crash()
        sim.run(until=sim.now + 5000.0)
        # Either the command was recovered or a no-op replaced it; in both
        # cases no live replica blocks forever on the instance.
        for replica in replicas[1:]:
            for instance in replica.instances.values():
                assert instance.status in (InstanceStatus.COMMITTED, InstanceStatus.EXECUTED,
                                           InstanceStatus.NOOP, InstanceStatus.PRE_ACCEPTED,
                                           InstanceStatus.ACCEPTED)

    def lone_replica(self, node_id: int):
        """One replica of a cluster, fed by hand, with what it sends recorded."""
        _, _, replicas = build_epaxos_cluster()
        replica = replicas[node_id]
        sent = []
        replica.send = lambda dst, message: sent.append(message)
        replica.broadcast = lambda message, include_self=True: sent.append(message)
        return replica, sent

    def recover_into_accept(self, replica, sent, command):
        """Replica 1 knows instance (0, 0) pre-accepted and recovers it up to Accept."""
        replica.handle_message(0, PreAccept(instance_id=(0, 0), command=command, seq=1,
                                            deps=frozenset(), ballot=Ballot.initial(0)))
        replica._recover_instances_of(0)
        ballot = sent[-1].ballot
        reply = PrepareReply(instance_id=(0, 0), ballot=ballot, known=True, command=command,
                             seq=1, deps=frozenset(), status=InstanceStatus.PRE_ACCEPTED.value)
        for src in (2, 3):
            replica.handle_message(src, reply)
        return reply

    def test_a_recovery_is_forgotten_once_its_quorum_has_replied(self):
        replica, sent = self.lone_replica(1)
        command = make_command(0, 0, key="x", origin=0)
        late_reply = self.recover_into_accept(replica, sent, command)
        assert replica._recoveries == {}
        assert [type(message) for message in sent[-2:]] == [Prepare, Accept]
        count = len(sent)
        replica.handle_message(4, late_reply)
        assert len(sent) == count
        # The Accept round commits and leaves nothing behind.
        for src in (2, 3):
            replica.handle_message(src, AcceptReply(instance_id=(0, 0), ballot=sent[-1].ballot))
        assert type(sent[-1]) is Commit
        assert (replica._leader_states, replica._recoveries) == ({}, {})
        assert replica.has_executed(command.command_id)

    def test_a_commit_learned_from_elsewhere_drops_the_local_round(self):
        replica, sent = self.lone_replica(0)
        command = make_command(0, 0, key="x", origin=0)
        replica.propose(command)
        assert list(replica._leader_states) == [(0, 0)]
        replica.handle_message(2, Commit(instance_id=(0, 0), command=command, seq=1,
                                         deps=frozenset()))
        assert replica._leader_states == {}
        assert replica.has_executed(command.command_id)
        # The superseded PreAccept round's replies find no state: no second Commit.
        for src in (1, 2):
            replica.handle_message(src, PreAcceptReply(instance_id=(0, 0), seq=1,
                                                       deps=frozenset(),
                                                       ballot=Ballot.initial(0),
                                                       changed=False))
        assert [type(message) for message in sent] == [PreAccept]
        assert replica.stats.fast_decisions == 0

    def test_a_commit_adopted_in_recovery_drops_the_local_round(self):
        """A second recovery finds the instance committed: the first one's Accept
        round, still waiting for replies, is over."""
        replica, sent = self.lone_replica(1)
        command = make_command(0, 0, key="x", origin=0)
        self.recover_into_accept(replica, sent, command)
        assert list(replica._leader_states) == [(0, 0)]
        replica._recover_instances_of(0)
        committed = PrepareReply(instance_id=(0, 0), ballot=sent[-1].ballot, known=True,
                                 command=command, seq=1, deps=frozenset(),
                                 status=InstanceStatus.COMMITTED.value)
        for src in (2, 3):
            replica.handle_message(src, committed)
        assert type(sent[-1]) is Commit
        assert (replica._leader_states, replica._recoveries) == ({}, {})
        assert replica.has_executed(command.command_id)

    def test_crash_of_follower_does_not_block(self):
        sim, _, replicas = build_epaxos_cluster(recovery=True, seed=8)
        replicas[4].crash()
        commands = [(0, make_command(0, k, key="x", origin=0)) for k in range(3)]
        assert submit_and_run(sim, replicas, commands, deadline_ms=60000)
