"""History collection: replicas learn by message what every replica delivered.

``repro.core.collection`` lets a CAESAR replica forget a command once all
replicas have reported delivering it.  These tests hold it to its rules and
to the uncollected protocol:

* a command every replica reported is removed, and one replica that reports
  nothing pins it;
* removal waits while a proposal is parked on the command's key;
* a proposal below the key's collected floor gets the NACK the uncollected
  history gives it, and a late message naming a collected command changes
  nothing;
* a report that is lost is sent again, and collection resumes after a crash
  and restart;
* a Hypothesis differential feeds a collecting replica and the never-collecting
  spec the same messages: same verdicts, timestamps and delivery order;
* CAESAR's nine quick chaos schedules pass with collection on, and over TCP a
  hot key's history and ``Stable`` frames stay bounded.
"""

from __future__ import annotations

import asyncio
import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.harness.chaos as chaos
from repro.chaos.nemesis import CONFORMANCE_SCHEDULES
from repro.consensus.ballots import Ballot
from repro.core import collection
from repro.core.caesar import CaesarReplica
from repro.core.invariants import check_all
from repro.core.messages import (
    Delivered,
    FastProposeReply,
    Recovery,
    RetryReply,
    SlowProposeReply,
)
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.collector import MetricsCollector
from repro.net.client import connect_pool
from repro.net.clock import WallClock
from repro.net.loopback import LoopbackCluster
from repro.workload.generator import WorkloadConfig
from tests.conftest import ignore, run_until_executed
from tests.spec_caesar import SpecCaesarReplica
from tests.test_caesar_differential import (
    REPLICAS,
    Probe,
    command,
    fast,
    random_schedule,
    retry,
    slow,
    stable,
    ts,
    waits,
)

PEERS = range(1, REPLICAS)
A, B, C = command(0, 0), command(1, 0), command(2, 0)


class Collecting(Probe):
    """Replica 0 of five with collection on; the test plays its peers' reports."""

    def __init__(self, wait_enabled: bool = True) -> None:
        super().__init__(CaesarReplica, wait_enabled)
        for peer in PEERS:   # the collector counts every replica on the network
            self.replica.network.register(SimpleNamespace(node_id=peer))
        self.replica.history_gc = True
        self.replica.start()
        self.reported = dict.fromkeys(PEERS, 0)

    def report_from(self, *peers: int) -> None:
        """Each peer reports delivering what this replica delivered; then one tick."""
        order = self.delivered()
        for peer in peers:
            position = self.reported[peer]
            self.feed(peer, Delivered(position=position, ids=tuple(order[position:]),
                                      received=len(order)))
            self.reported[peer] = len(order)
        self.tick()

    def tick(self) -> None:
        """Let the report timer fire once."""
        self.sim.run(until=self.sim.now + collection.REPORT_EVERY_MS)

    def reports_to(self, peer: int) -> list:
        return [message for dst, message in self.sent
                if dst == peer and isinstance(message, Delivered)]



def verdicts(probe: Probe, cmd) -> list:
    """``(ok, timestamp)`` of every proposal answer ``probe`` sent for ``cmd``."""
    return [(answer.ok, answer.timestamp) for answer in probe.answers(cmd)]


def collected(probe: Collecting, *commands) -> bool:
    return all(cmd.command_id not in probe.replica.history
               and probe.replica.delivery.is_delivered(cmd.command_id) for cmd in commands)


class TestRules:
    def test_a_command_every_replica_reported_is_collected_and_a_silent_peer_pins_it(self):
        probe = Collecting()
        probe.feed(1, stable(A, ts(3, 1)))
        probe.report_from(1, 2, 3)
        assert A.command_id in probe.replica.history
        probe.report_from(4)
        assert collected(probe, A) and len(probe.replica.history) == 0
        assert probe.replica.stats.commands_collected == 1

    def test_removal_waits_while_a_proposal_is_parked_on_the_key(self):
        probe = Collecting()
        probe.feed(1, stable(A, ts(1, 1)))
        probe.feed(2, fast(B, ts(9, 2)))          # pending, later: C must wait for it
        probe.feed(3, fast(C, ts(5, 3)))
        assert probe.replica.wait_manager.parked == 1
        probe.report_from(*PEERS)
        assert A.command_id in probe.replica.history
        probe.feed(2, stable(B, ts(9, 2), [A.command_id, C.command_id]))
        assert verdicts(probe, C) == [(True, ts(5, 3))]
        probe.tick()
        assert collected(probe, A)

    @pytest.mark.parametrize("operation, expected", [("put", False), ("get", True)])
    def test_a_proposal_below_the_floor_gets_the_uncollected_verdict(self, operation, expected):
        """A collected write above a proposal was its NACK witness; a collected
        read is one only for a write."""
        collecting, spec = Collecting(), Probe(SpecCaesarReplica)
        late, later = command(2, 0, operation=operation), command(3, 0, operation=operation)
        for probe in (collecting, spec):
            probe.feed(1, stable(A, ts(5, 1)))
            probe.feed(2, stable(B, ts(6, 2), [A.command_id]))
        collecting.report_from(*PEERS)
        assert collected(collecting, A, B)
        for probe in (collecting, spec):
            probe.feed(3, fast(late, ts(4, 3)))
            probe.feed(4, fast(later, ts(8, 4)))
        assert verdicts(collecting, late) == verdicts(spec, late)
        assert [ok for ok, _ in verdicts(collecting, late)] == [False]
        assert verdicts(collecting, later) == verdicts(spec, later) == [(True, ts(8, 4))]
        # A read collected above a read: no witness for a read proposal.
        reader, spec = Collecting(), Probe(SpecCaesarReplica)
        for probe in (reader, spec):
            probe.feed(1, stable(command(1, 0, operation="get"), ts(5, 1)))
        reader.report_from(*PEERS)
        for probe in (reader, spec):
            probe.feed(3, fast(late, ts(4, 3)))
        assert verdicts(reader, late) == verdicts(spec, late)
        assert [ok for ok, _ in verdicts(reader, late)] == [expected]

    def test_a_parked_proposal_below_the_floor_is_nacked_once_it_resolves(self):
        collecting, spec = Collecting(), Probe(SpecCaesarReplica)
        for probe in (collecting, spec):
            probe.feed(1, stable(A, ts(7, 1)))
        collecting.report_from(*PEERS)
        for probe in (collecting, spec):
            probe.feed(2, fast(B, ts(9, 2)))
            probe.feed(3, fast(C, ts(5, 3)), advance_ms=3.0)   # waits for B
            assert probe.answers(C) == []
            probe.feed(2, stable(B, ts(9, 2), [A.command_id, C.command_id]), advance_ms=4.0)
        assert verdicts(collecting, C) == verdicts(spec, C)
        assert [ok for ok, _ in verdicts(collecting, C)] == [False]
        assert waits(collecting) == waits(spec) == (1, 4.0)

    @pytest.mark.parametrize("late", [
        lambda: stable(A, ts(3, 1)),
        lambda: fast(A, ts(3, 1)),
        lambda: slow(A, ts(3, 1)),
        lambda: retry(A, ts(3, 1)),
        lambda: fast(A, ts(11, 2), ballot=Ballot(1, 2)),
        lambda: Recovery(command=A, ballot=Ballot(1, 2)),
    ], ids=["stable", "fast-propose", "slow-propose", "retry", "fast-propose-higher-ballot",
            "recovery"])
    def test_a_late_message_naming_a_collected_command_changes_nothing(self, late):
        probe = Collecting()
        probe.feed(1, stable(A, ts(3, 1)))
        probe.report_from(*PEERS)
        assert collected(probe, A) and len(probe.replica.history) == 0
        sent = len(probe.sent)
        probe.feed(1, late())
        assert len(probe.replica.history) == 0
        assert probe.sent[sent:] == []
        assert probe.replica.commands_executed == 1

    def test_a_collected_command_takes_its_promise_with_it(self):
        """A recovery prepare above a stable entry's ballot is a promise of its
        own; collecting the entry forgets it (the parent's register kept every id)."""
        probe = Collecting()
        probe.feed(1, stable(A, ts(3, 1)))
        probe.feed(2, Recovery(command=A, ballot=Ballot(1, 2)))
        assert probe.replica.promises == {A.command_id: Ballot(1, 2)}
        probe.report_from(*PEERS)
        assert collected(probe, A)
        assert probe.replica.promises == {}
        assert probe.replica.promised(A.command_id) is None

    def test_a_stable_naming_a_collected_predecessor_is_delivered_at_once(self):
        probe = Collecting()
        probe.feed(1, stable(A, ts(3, 1)))
        probe.report_from(*PEERS)
        probe.feed(2, stable(B, ts(5, 2), [A.command_id]))
        assert probe.delivered() == [A.command_id, B.command_id]


class TestReports:
    def test_a_report_is_bounded_and_the_rest_follows(self, monkeypatch):
        monkeypatch.setattr(collection, "REPORT_MAX_IDS", 2)
        probe = Collecting()
        for sequence, cmd in enumerate((A, B, C)):
            probe.feed(1, stable(cmd, ts(3 + sequence, 1)))
        probe.tick()
        probe.feed(1, Delivered(position=0, ids=(), received=2))
        probe.tick()
        assert [(report.position, report.ids) for report in probe.reports_to(1)] == [
            (0, (A.command_id, B.command_id)), (2, (C.command_id,))]

    def test_a_report_that_is_never_acknowledged_is_sent_again(self):
        probe = Collecting()
        probe.feed(1, stable(A, ts(3, 1)))
        probe.tick()
        for peer in (2, 3, 4):
            probe.feed(peer, Delivered(position=0, ids=(), received=1))
        for _ in range(collection.RESEND_AFTER_REPORTS + 1):
            probe.tick()
        assert [(report.position, report.ids) for report in probe.reports_to(1)] == [
            (0, (A.command_id,)), (0, (A.command_id,))]
        assert all(len(probe.reports_to(peer)) == 1 for peer in (2, 3, 4))

    def test_collection_resumes_after_a_dropped_report(self):
        """Peer 4's first report is lost: its second is not counted past the gap,
        and the resend from the position it left off collects both commands."""
        probe = Collecting()
        probe.feed(1, stable(A, ts(3, 1)))
        probe.feed(1, stable(B, ts(4, 1), [A.command_id]))
        probe.report_from(1, 2, 3)
        probe.feed(4, Delivered(position=1, ids=(B.command_id,), received=0))
        probe.tick()
        assert not collected(probe, A) and not collected(probe, B)
        probe.feed(4, Delivered(position=0, ids=(A.command_id, B.command_id), received=0))
        probe.tick()
        assert collected(probe, A, B)
        # A report repeating what was counted is acknowledged again.
        before = len(probe.reports_to(4))
        probe.feed(4, Delivered(position=0, ids=(A.command_id, B.command_id), received=2))
        probe.tick()
        assert probe.reports_to(4)[before:] == [Delivered(position=2, ids=(), received=2)]

    def test_collection_resumes_after_a_crash_and_restart(self):
        """The report timer that fired while the replica was down is re-armed by
        the restart: commands proposed afterwards are collected everywhere."""
        cluster = build_cluster(ClusterConfig(protocol="caesar", seed=3, history_gc=True))
        cluster.start()

        def run(first: int, count: int) -> list:
            commands = [command(node, first + sequence, key=f"k{sequence % 2}")
                        for sequence in range(count) for node in (0, 1, 2)]
            for cmd in commands:
                cluster.replica(cmd.origin).submit(cmd, ignore)
            assert run_until_executed(cluster, [cmd.command_id for cmd in commands],
                                      deadline_ms=20000)
            cluster.run(3000.0)
            return commands

        run(0, 5)
        cluster.replica(4).crash()
        cluster.run(1000.0)
        cluster.replica(4).restart()
        after = run(100, 5)
        for replica in cluster.replicas:
            assert not any(cmd.command_id in replica.history for cmd in after), replica.node_id
        assert check_all(cluster.replicas) == []


# ------------------------------------------------- the never-collecting spec

def replies(probe: Probe) -> list:
    """What a leader learns from this acceptor: every verdict and timestamp, less
    the predecessor sets (collected commands are missing from the product's)."""
    return [(dst, type(message).__name__, message.command_id, message.ballot,
             message.timestamp, getattr(message, "ok", None))
            for dst, message in probe.sent
            if isinstance(message, (FastProposeReply, SlowProposeReply, RetryReply))]


def against_the_spec(seed: int, reports, wait_enabled: bool = True) -> int:
    """Feed ``random_schedule(seed)`` to a collecting replica and to the spec,
    every peer reporting after each step in ``reports``; both must send the
    same replies and deliver in the same order.  Returns how many commands
    were collected."""
    collecting, spec = Collecting(wait_enabled), Probe(SpecCaesarReplica, wait_enabled)
    for step, (src, message, advance) in enumerate(random_schedule(seed)):
        for probe in (collecting, spec):
            probe.feed(src, message, advance)
        if step in reports:
            collecting.report_from(*PEERS)
            spec.sim.run(until=collecting.sim.now)
        assert replies(collecting) == replies(spec), (seed, step, message)
        assert collecting.delivered() == spec.delivered(), (seed, step)
    return collecting.replica.stats.commands_collected


class TestAgainstTheSpec:
    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**16), reports=st.sets(st.integers(0, 89), max_size=30),
           wait_enabled=st.booleans())
    def test_collecting_changes_no_verdict_timestamp_or_delivery(self, seed, reports,
                                                                 wait_enabled):
        against_the_spec(seed, reports, wait_enabled)

    def test_seeded_streams_collect_and_agree(self):
        """Forty fixed streams, every peer reporting after every tenth step: the
        differential is only worth its examples if they collect entries that
        later messages are answered against."""
        assert sum(against_the_spec(seed, range(9, 90, 10)) for seed in range(40)) > 100


# ----------------------------------------------------------- whole clusters

def test_every_quick_chaos_schedule_passes_with_collection_on(monkeypatch):
    clusters = []

    def collecting_cluster(config):
        cluster = build_cluster(dataclasses.replace(config, history_gc=True))
        clusters.append(cluster)
        return cluster

    monkeypatch.setattr(chaos, "build_cluster", collecting_cluster)
    results = chaos.run_conformance_matrix(
        ["caesar"], list(CONFORMANCE_SCHEDULES),
        chaos.ChaosConfig(seed=7, fault_at_ms=500.0, fault_hold_ms=1000.0, settle_ms=800.0))
    assert len(results) == len(CONFORMANCE_SCHEDULES) == 9
    for result, cluster in zip(results, clusters):
        name = result.plan.name
        assert result.ok, (name, result.verdict(), result.internal_violations)
        assert sum(r.stats.commands_collected for r in cluster.replicas) > 0, name
        live = [replica for replica in cluster.replicas if not replica.crashed]
        assert check_all(live) == [], name


def test_an_experiment_with_collection_on_keeps_a_small_history():
    config = dict(protocol="caesar", conflict_rate=1.0, clients_per_site=2,
                  duration_ms=6000.0, warmup_ms=500.0, seed=5, shared_pool_size=1)
    plain = run_experiment(ExperimentConfig(**config))
    collecting = run_experiment(ExperimentConfig(**config, history_gc=True))
    assert collecting.consistency_violations == 0
    assert collecting.metrics.count > 100
    assert (max(len(replica.history) for replica in collecting.cluster.replicas)
            < min(len(replica.history) for replica in plain.cluster.replicas) / 4)
    assert all(promises_of_collected(replica) == [] for replica in collecting.cluster.replicas)


def promises_of_collected(replica) -> list:
    """The promises ``replica`` still holds for commands it executed and collected."""
    collected_ids = [command.command_id for command in replica.execution_log
                     if command.command_id not in replica.history]
    assert collected_ids, "nothing was collected"
    return [(command_id, replica.promised(command_id)) for command_id in collected_ids
            if replica.promised(command_id) is not None]


# -------------------------------------------------------------------- TCP

#: Bounds for a 3-replica loopback cluster on one hot key.  Without collection
#: 3,000 commands leave 3,000 live entries per replica and about 4,300 codec
#: bytes per ``Stable``; with it, none and about 200.
LIVE_HISTORY_BOUND = 600
STABLE_BYTES_BOUND = 800


async def _hot_key_over_tcp(commands: int, clients: int = 3) -> dict:
    loop = asyncio.get_running_loop()
    cluster = LoopbackCluster("caesar", replicas=3, seed=5)
    await cluster.start()
    connections = []
    try:
        clock = WallClock(seed=5, loop=loop)
        pool, connections = await connect_pool(
            cluster.peers, clients, WorkloadConfig(conflict_rate=1.0, shared_pool_size=1),
            clock, MetricsCollector(warmup_ms=0.0),
            reconnect_timeout_ms=None, max_commands=commands // clients)
        replicas = [server.replica for server in cluster.servers.values()]
        deadline, live = loop.time() + 90.0, 0
        pool.start_all()
        while pool.total_completed < commands and loop.time() < deadline:
            live = max(live, max(len(replica.history) for replica in replicas))
            await asyncio.sleep(0.02)
        return {"completed": pool.total_completed, "live": live,
                "promises": [promises_of_collected(replica) for replica in replicas],
                "stats": [server.stats_payload() for server in cluster.servers.values()]}
    finally:
        for connection in connections:
            await connection.close()
        await cluster.stop()


def test_a_hot_key_over_tcp_keeps_its_history_and_its_stable_frames_bounded():
    outcome = asyncio.run(_hot_key_over_tcp(3000))
    assert outcome["completed"] == 3000
    assert outcome["live"] <= LIVE_HISTORY_BOUND
    assert outcome["promises"] == [[], [], []]
    for stats in outcome["stats"]:
        counters = stats["stats"]
        stables = (counters.get("fast_decisions", 0) + counters.get("slow_decisions", 0)) * 3
        per_stable = stats["network"]["per_type_codec_bytes"]["Stable"] / stables
        assert per_stable <= STABLE_BYTES_BOUND, stats["node_id"]
        assert counters["commands_collected"] >= stats["commands_executed"] - LIVE_HISTORY_BOUND
