"""Focused tests for the ConsensusReplica base class and EPaxos attribute logic."""

from __future__ import annotations

import pytest

from repro.baselines.epaxos import EPaxosReplica, InstanceStatus, PreAccept
from repro.consensus.ballots import Ballot
from repro.consensus.command import ALREADY_EXECUTED, IN_FLIGHT
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.core.caesar import CaesarReplica
from repro.harness.experiment import ExperimentConfig, count_decisions, run_experiment
from repro.harness.protocols import PROTOCOLS
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from tests.conftest import (build_replicas, drain, ignore, make_command, submit_and_run,
                            uniform_topology)


class TestConsensusReplicaBase:
    def test_submit_on_crashed_replica_is_dropped(self):
        _, _, replicas = build_replicas()
        replicas[0].crash()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, callback=lambda r: pytest.fail("must not complete"))
        assert command.command_id not in replicas[0].decisions

    def test_decision_recorded_on_submit(self):
        _, _, replicas = build_replicas()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        decision = replicas[0].decisions[command.command_id]
        # The proposer is the replica holding the record; no other holds one.
        assert not any(command.command_id in replica.decisions for replica in replicas[1:])
        assert decision.submitted_at == pytest.approx(0.0, abs=1.0)
        assert decision.kind is None

    def test_record_decided_only_once(self):
        _, _, replicas = build_replicas()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        replicas[0].record_decided(command.command_id, DecisionKind.FAST)
        first_time = replicas[0].decisions[command.command_id].decided_at
        replicas[0].record_decided(command.command_id, DecisionKind.SLOW)
        decision = replicas[0].decisions[command.command_id]
        assert decision.decided_at == first_time
        assert decision.kind is DecisionKind.FAST

    def test_phase_times_start_at_zero_and_a_fast_decision_fills_propose_and_deliver(self):
        sim, _, replicas = build_replicas()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        decision = replicas[0].decisions[command.command_id]
        assert (decision.propose_ms, decision.retry_ms, decision.deliver_ms) == (0.0, 0.0, 0.0)
        sim.run_until(lambda: replicas[0].has_executed(command.command_id), deadline=30000)
        assert decision.kind is DecisionKind.FAST
        assert decision.propose_ms == decision.decided_at - decision.submitted_at
        assert decision.retry_ms == 0.0
        assert decision.deliver_ms == decision.executed_at - decision.decided_at

    @pytest.mark.parametrize("cls", [CaesarReplica, EPaxosReplica],
                             ids=["caesar", "epaxos"])
    def test_an_executed_id_submitted_again_is_rejected_at_once(self, cls):
        # A client that reuses an id (a second serve-mode session counts from
        # 0 again) gets an answer, not silence.
        sim, _, replicas = build_replicas(cls)
        command = make_command(0, 0, key="x", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        executed, answers = replicas[0].commands_executed, []
        replicas[0].submit(command, answers.append)
        assert [(result.command_id, result.value, result.executed_at, result.rejected)
                for result in answers] == [(command.command_id, None, sim.now, ALREADY_EXECUTED)]
        drain(sim)
        assert len(answers) == 1 and replicas[0].commands_executed == executed

    def test_count_decisions_empty_without_decisions(self):
        _, _, replicas = build_replicas()
        replicas[0].submit(make_command(0, 0, key="x", origin=0), ignore)
        # A submitted but undecided command is not counted.
        assert count_decisions(replicas[:1]) == (0, 0)

    def test_count_decisions_after_run(self, caesar_cluster):
        sim, _, replicas = caesar_cluster()
        commands = [make_command(0, k, key=f"k{k}", origin=0) for k in range(4)]
        for command in commands:
            replicas[0].submit(command, ignore)
        sim.run_until(lambda: all(replicas[0].has_executed(c.command_id) for c in commands),
                      deadline=30000)
        # Non-conflicting commands from one proposer all take the fast path.
        assert count_decisions(replicas[:1]) == (4, 0)

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_a_second_execution_raises(self, protocol):
        """CAESAR executes through delivery, and its delivered bit is the guard;
        the baselines' index is."""
        sim, _, replicas = build_replicas(PROTOCOLS[protocol].replica_class)
        command = make_command(0, 0, key="x", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        replica = replicas[0]
        if protocol == "caesar":
            entry = replica.history.get(command.command_id)
            again = lambda: replica.delivery._deliver(command, entry)  # noqa: E731
        else:
            again = lambda: replica.execute_command(command)  # noqa: E731
        errors = []
        try:
            again()
        except ValueError as error:
            errors.append(str(error))
        assert errors == [f"command {command.command_id} executed twice"]
        assert replica.commands_executed == 1

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_an_id_still_in_flight_submitted_again_is_rejected_at_once(self, protocol):
        """The first caller is answered once the command executes, the second at
        once; an id holds one callback, so a second one used to silence the
        first (and EPaxos proposed the command twice and executed it twice)."""
        sim, _, replicas = build_replicas(PROTOCOLS[protocol].replica_class, seed=3)
        command = make_command(0, 0, key="x", origin=0)
        first, second = [], []
        replicas[0].submit(command, first.append)
        replicas[0].submit(command, second.append)
        assert [(result.value, result.rejected) for result in second] == [(None, IN_FLIGHT)]
        sim.run(until=sim.now + 3000.0)
        assert [(result.command_id, result.rejected) for result in first] == [
            (command.command_id, 0)]
        assert len(second) == 1
        assert all(replica.commands_executed == 1 for replica in replicas)


class TestEPaxosAttributes:
    def build_replica(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(5, rtt_ms=20.0), NetworkConfig())
        quorums = QuorumSystem.for_cluster(5)
        return EPaxosReplica(0, sim, network, quorums, KeyValueStore()), sim

    def test_first_command_has_no_dependencies_and_seq_one(self):
        replica, _ = self.build_replica()
        replica.propose(make_command(0, 0, key="x", origin=0))
        instance = replica.instances[(0, 0)]
        assert instance.deps == ()
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
        assert second.deps == ()
        assert second.seq == 1

    def test_pre_accept_reply_reports_changed_attributes(self):
        replica, sim = self.build_replica()
        # The acceptor already knows a conflicting local instance.
        replica.propose(make_command(0, 0, key="x", origin=0))
        sent = []
        replica.send = lambda dst, msg: sent.append((dst, msg))
        remote = make_command(1, 0, key="x", origin=1)
        replica._on_pre_accept(1, PreAccept(instance_id=(1, 0), command=remote, seq=1,
                                            deps=(), ballot=Ballot.initial(1)))
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
                                            deps=(), ballot=Ballot.initial(1)))
        reply = sent[-1][1]
        assert not reply.changed
        assert reply.seq == 1

    def test_a_get_and_the_puts_on_its_key_depend_on_each_other(self):
        replica, _ = self.build_replica()
        replica.propose(make_command(0, 0, key="x"))
        replica.propose(make_command(0, 1, key="x", operation="get"))
        replica.propose(make_command(0, 2, key="x", operation="get"))
        replica.propose(make_command(0, 3, key="x"))
        replica.propose(make_command(0, 4, key="y"))
        deps = {seq: replica.instances[(0, seq)].deps for seq in range(5)}
        # A get depends on the key's puts, not on another get; a put on both.
        assert deps[1] == deps[2] == ((0, 0),)
        assert deps[3] == ((0, 0), (0, 1), (0, 2))
        assert deps[4] == ()
        assert replica._reads_on == {"x": [(0, 1), (0, 2)]}
        assert replica._writes_on == {"x": [(0, 0), (0, 3)], "y": [(0, 4)]}

    def test_a_write_only_run_makes_no_read_set(self):
        result = run_experiment(ExperimentConfig(protocol="epaxos", conflict_rate=0.3,
                                                 clients_per_site=2, duration_ms=1000.0,
                                                 warmup_ms=0.0))
        assert result.metrics.count > 0
        for replica in result.cluster.replicas:
            assert replica._writes_on
            assert replica._reads_on == {}
