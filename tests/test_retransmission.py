"""The runtime retransmission + catch-up layer.

Three angles:

* **property** — under generated lossy schedules (message loss, crashes with
  restart) every protocol recovers after the heal: retransmission re-drives
  quorum-pending rounds and catch-up fills execution gaps;
* **idempotency** — a fully duplicated message stream (every message sent
  twice) changes nothing: every replica executes every command exactly once
  and records the same decisions as a duplication-free run;
* **byte-neutrality** — on loss-free runs the layer is pure bookkeeping:
  every client-visible metric is identical with the layer running and with
  it patched out (the ``disable_retransmission`` fixture), and the
  retransmission / catch-up counters stay at zero.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.nemesis import DuplicationFault, Nemesis, NemesisPlan, random_plan
from repro.consensus.command import Command
from repro.core.config import CaesarConfig
from repro.harness.chaos import ChaosConfig, run_chaos
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime.kernel import RETRANSMIT_SCAN_EVERY_MS
from repro.sim.random import DeterministicRandom

PROTOCOLS = ("caesar", "epaxos", "m2paxos", "mencius", "multipaxos")


class TestLossyScheduleProperty:
    """Any random lossy plan heals into progress, on every protocol."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @settings(max_examples=2, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(index=st.integers(min_value=0, max_value=10_000))
    def test_random_lossy_schedule_recovers(self, protocol, index):
        root = DeterministicRandom(1234)
        plan = random_plan(root.fork_cell(("retransmit-property", index)),
                           5, 1000.0, 2000.0, include_lossy=True)
        result = run_chaos(ChaosConfig(protocol=protocol, plan=plan, seed=index + 1))
        assert result.ok, (f"{protocol} did not recover from {plan.describe()}: "
                           f"{result.verdict()} — probes {result.probes_completed}/"
                           f"{result.probes_submitted}")


DUP_EVERYTHING = NemesisPlan("dup-everything", (
    DuplicationFault(at_ms=0.0, until_ms=20000.0, probability=1.0),))


def _run_fixed_workload(protocol, plan=None, seed=5):
    """Submit a fixed command set (two per site, three shared keys) and run
    until every replica executed all of it; returns (cluster, commands, done)."""
    cluster = build_cluster(ClusterConfig(protocol=protocol, seed=seed))
    if plan is not None:
        Nemesis(cluster, plan)
    commands = [Command(command_id=(900 + origin, i), key=f"k{i % 3}",
                        operation="put", value=f"v{origin}.{i}", origin=origin)
                for origin in range(cluster.size) for i in range(2)]
    cluster.start()
    for command in commands:
        cluster.replica(command.origin).submit(command)
    done = cluster.run_until_executed([c.command_id for c in commands],
                                      deadline_ms=30000.0)
    return cluster, commands, done


class TestDuplicateIdempotency:
    """Duplicating every message must not change executions or decisions."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_duplicated_stream_executes_each_command_once(self, protocol):
        dup_cluster, commands, dup_done = _run_fixed_workload(protocol,
                                                              plan=DUP_EVERYTHING)
        assert dup_done
        clean_cluster, _, clean_done = _run_fixed_workload(protocol, plan=None)
        assert clean_done
        for dup_replica, clean_replica in zip(dup_cluster.replicas,
                                              clean_cluster.replicas):
            # ExecutionLog raises on double-execution, so reaching here with
            # equal counts means every duplicate was absorbed silently.
            assert dup_replica.commands_executed == len(commands)
            assert dup_replica.commands_executed == clean_replica.commands_executed
            assert (len(list(dup_replica.completed_decisions()))
                    == len(list(clean_replica.completed_decisions())))
        assert dup_cluster.check_consistency() == []


class TestByteNeutrality:
    """On loss-free runs the layer must not change a single client metric."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_loss_free_metrics_identical_and_counters_zero(self, protocol,
                                                           disable_retransmission):
        config = ExperimentConfig(protocol=protocol, conflict_rate=0.3, clients_per_site=3,
                                  duration_ms=2500.0, warmup_ms=500.0, seed=7)
        enabled = run_experiment(config)
        disable_retransmission()
        disabled = run_experiment(config)

        assert enabled.metrics.count == disabled.metrics.count
        assert enabled.throughput_per_second == disabled.throughput_per_second
        assert enabled.fast_decisions == disabled.fast_decisions
        assert enabled.slow_decisions == disabled.slow_decisions
        assert enabled.consistency_violations == 0
        assert set(enabled.per_site_latency) == set(disabled.per_site_latency)
        for site, summary in enabled.per_site_latency.items():
            other = disabled.per_site_latency[site]
            assert summary.mean == other.mean
            assert summary.p95 == other.p95

        # A clean run never resends and never asks for catch-up.
        for replica in enabled.cluster.replicas:
            assert replica.stats.retransmissions_sent == 0
            assert replica.stats.catchup_requests == 0
            assert replica.stats.catchup_replies == 0


class TestRestartRearms:
    """A restart re-arms what the crash silently killed.

    Recovery is off, as in the chaos matrix: only the leader's own timers can
    finish its rounds.  Every answer to a proposal broadcast just before the
    crash reaches a dead process and is lost.
    """

    COMMAND = Command(command_id=(950, 0), key="k", operation="put", value="v", origin=4)

    def cluster(self):
        cluster = build_cluster(ClusterConfig(
            protocol="caesar", seed=3,
            protocol_options={"config": CaesarConfig(recovery_enabled=False)}))
        cluster.start()
        return cluster

    def test_a_round_broadcast_before_a_crash_is_resent_at_the_first_scan_after_the_restart(self):
        """The leader's own vote, counted before the crash, is no progress to wait out."""
        cluster = self.cluster()
        sim, leader = cluster.sim, cluster.replica(4)
        leader.submit(self.COMMAND)
        sim.run(until=sim.now + 1.0)        # the leader has voted for itself; no peer has
        assert leader.leader_states[self.COMMAND.command_id].votes.count == 1
        leader.crash()
        sim.run(until=sim.now + 2000.0)     # every answer lands on the dead process
        leader.restart()
        restarted_at = sim.now
        sim.run(until=restarted_at + RETRANSMIT_SCAN_EVERY_MS)
        assert leader.stats.retransmissions_sent == 4
        # One wide-area round trip later the command is decided and executed
        # everywhere, not a backed-off deadline later.
        assert cluster.run_until_executed([self.COMMAND.command_id], deadline_ms=1000.0)
        assert leader.stats.fast_decisions == 1

    def test_a_fast_round_short_of_its_fast_quorum_times_out_into_the_slow_path(self):
        """With a second peer dead, three votes are a classic quorum but never a
        fast one: only the proposal timeout, which fired while the leader was
        down, can move the round on."""
        cluster = self.cluster()
        sim, leader = cluster.sim, cluster.replica(4)
        cluster.replica(3).crash()
        leader.submit(self.COMMAND)
        leader.crash()                      # before even its own vote arrives
        sim.run(until=sim.now + 2000.0)     # past the 1.5 s proposal timeout
        leader.restart()
        assert cluster.run_until_executed([self.COMMAND.command_id], deadline_ms=5000.0)
        assert leader.stats.slow_proposals == 1 and leader.stats.slow_decisions == 1
        assert leader.leader_states == {}
