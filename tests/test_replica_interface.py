"""Focused tests for the ConsensusReplica base class and EPaxos attribute logic."""

from __future__ import annotations

import pytest

from repro.baselines.epaxos import EPaxosReplica, InstanceStatus, PreAccept
from repro.consensus.ballots import Ballot
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.harness.experiment import count_decisions
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import uniform_topology
from tests.conftest import build_caesar_cluster, make_command


class TestConsensusReplicaBase:
    def test_submit_on_crashed_replica_is_dropped(self):
        _, _, replicas = build_caesar_cluster()
        replicas[0].crash()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, callback=lambda r: pytest.fail("must not complete"))
        assert command.command_id not in replicas[0].decisions

    def test_decision_recorded_on_submit(self):
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command)
        decision = replicas[0].decisions[command.command_id]
        assert decision.proposer == 0
        assert decision.submitted_at == pytest.approx(0.0, abs=1.0)
        assert decision.kind is None

    def test_record_decided_only_once(self):
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command)
        replicas[0].record_decided(command.command_id, DecisionKind.FAST)
        first_time = replicas[0].decisions[command.command_id].decided_at
        replicas[0].record_decided(command.command_id, DecisionKind.SLOW)
        decision = replicas[0].decisions[command.command_id]
        assert decision.decided_at == first_time
        assert decision.kind is DecisionKind.FAST

    def test_record_phase_time_accumulates(self):
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command)
        replicas[0].record_phase_time(command.command_id, "propose", 10.0)
        replicas[0].record_phase_time(command.command_id, "propose", 5.0)
        assert replicas[0].decisions[command.command_id].phase_times["propose"] == 15.0

    def test_count_decisions_empty_without_decisions(self):
        _, _, replicas = build_caesar_cluster()
        replicas[0].submit(make_command(0, 0, key="x", origin=0))
        # A submitted but undecided command is not counted.
        assert count_decisions(replicas[:1]) == (0, 0)

    def test_count_decisions_after_run(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = [make_command(0, k, key=f"k{k}", origin=0) for k in range(4)]
        for command in commands:
            replicas[0].submit(command)
        sim.run_until(lambda: all(replicas[0].has_executed(c.command_id) for c in commands),
                      deadline=30000)
        # Non-conflicting commands from one proposer all take the fast path.
        assert count_decisions(replicas[:1]) == (4, 0)

    def test_execute_command_twice_rejected(self):
        _, _, replicas = build_caesar_cluster()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].execute_command(command)
        with pytest.raises(ValueError):
            replicas[0].execute_command(command)


class TestEPaxosAttributes:
    def build_replica(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(5, rtt_ms=20.0))
        quorums = QuorumSystem.for_cluster(5)
        return EPaxosReplica(0, sim, network, quorums, KeyValueStore(),
                             recovery_enabled=False), sim

    def test_first_command_has_no_dependencies_and_seq_one(self):
        replica, _ = self.build_replica()
        replica.propose(make_command(0, 0, key="x", origin=0))
        instance = replica.instances[(0, 0)]
        assert instance.deps == set()
        assert instance.seq == 1
        assert instance.status is InstanceStatus.PRE_ACCEPTED

    def test_second_conflicting_command_depends_on_first(self):
        replica, _ = self.build_replica()
        replica.propose(make_command(0, 0, key="x", origin=0))
        replica.propose(make_command(0, 1, key="x", origin=0))
        second = replica.instances[(0, 1)]
        assert (0, 0) in second.deps
        assert second.seq == 2

    def test_non_conflicting_commands_independent(self):
        replica, _ = self.build_replica()
        replica.propose(make_command(0, 0, key="x", origin=0))
        replica.propose(make_command(0, 1, key="y", origin=0))
        second = replica.instances[(0, 1)]
        assert second.deps == set()
        assert second.seq == 1

    def test_pre_accept_reply_reports_changed_attributes(self):
        replica, sim = self.build_replica()
        # The acceptor already knows a conflicting local instance.
        replica.propose(make_command(0, 0, key="x", origin=0))
        sent = []
        replica.send = lambda dst, msg: sent.append((dst, msg))
        remote = make_command(1, 0, key="x", origin=1)
        replica._on_pre_accept(1, PreAccept(instance_id=(1, 0), command=remote, seq=1,
                                            deps=frozenset(), ballot=Ballot.initial(1)))
        reply = sent[-1][1]
        assert reply.changed
        assert (0, 0) in set(reply.deps)
        assert reply.seq == 2

    def test_pre_accept_reply_unchanged_when_no_local_conflicts(self):
        replica, _ = self.build_replica()
        sent = []
        replica.send = lambda dst, msg: sent.append((dst, msg))
        remote = make_command(1, 0, key="fresh", origin=1)
        replica._on_pre_accept(1, PreAccept(instance_id=(1, 0), command=remote, seq=1,
                                            deps=frozenset(), ballot=Ballot.initial(1)))
        reply = sent[-1][1]
        assert not reply.changed
        assert reply.seq == 1
