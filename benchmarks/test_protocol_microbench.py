"""Protocol micro-benchmarks backing the quantities quoted in Section V-VI.

These check the analytic properties the paper states rather than a plotted
figure: quorum sizes for the five-node deployment, the two-communication-delay
fast decision, the four-delay slow decision, and the relative cost of the
protocols' message footprints.
"""

from __future__ import annotations

import pytest

from repro.consensus.command import Command
from repro.consensus.quorums import QuorumSystem, epaxos_fast_quorum_size
from repro.core.config import CaesarConfig
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.metrics.perf import PerfRecord, write_record
from repro.sim.network import NetworkConfig
from repro.sim.topology import ec2_five_sites


def order_single_command(protocol: str, origin: int = 0, **options):
    """Build a cluster, order one command from ``origin``, return (latency, cluster).

    Wire accounting is enabled so the cluster also reports codec-measured
    bytes for every message it sent (virtual-time behavior is unaffected).
    """
    cluster = build_cluster(ClusterConfig(protocol=protocol, seed=5,
                                          network=NetworkConfig(wire_accounting=True),
                                          protocol_options=options))
    command = Command(command_id=(origin, 0), key="bench", operation="put", value="v",
                      origin=origin)
    cluster.replica(origin).submit(command)
    # check_every=1: stop on the exact event so message counts stay comparable.
    cluster.sim.run_until(lambda: cluster.all_executed([command.command_id]),
                          deadline=cluster.sim.now + 30000, check_every=1)
    latency = cluster.replica(origin).decisions[command.command_id].latency_ms
    return latency, cluster


def test_quorum_sizes_for_paper_deployment():
    quorums = QuorumSystem.for_cluster(5)
    assert (quorums.classic, quorums.fast, quorums.f) == (3, 4, 2)
    assert epaxos_fast_quorum_size(5) == 3


def test_caesar_fast_decision_is_two_delays():
    """A CAESAR fast decision costs one round trip to the fast quorum (2 delays)."""
    latency, _ = order_single_command("caesar")
    topology = ec2_five_sites()
    assert latency == pytest.approx(topology.quorum_latency(0, 4), rel=0.2)


def test_caesar_slow_decision_is_four_delays():
    """With the wait condition disabled, a rejected command needs two more delays."""

    def run():
        cluster = build_cluster(ClusterConfig(
            protocol="caesar", seed=6,
            protocol_options={"config": CaesarConfig(recovery_enabled=False,
                                                     wait_condition_enabled=False)}))
        # Two conflicting commands proposed simultaneously from the two farthest
        # sites force at least one of them onto the retry path.
        first = Command(command_id=(0, 0), key="hot", operation="put", value="a", origin=0)
        second = Command(command_id=(4, 0), key="hot", operation="put", value="b", origin=4)
        cluster.replica(0).submit(first)
        cluster.replica(4).submit(second)
        cluster.run_until_executed([first.command_id, second.command_id],
                                   deadline_ms=30000)
        return cluster

    cluster = run()
    slow = sum(r.stats.slow_decisions for r in cluster.replicas)
    fast = sum(r.stats.fast_decisions for r in cluster.replicas)
    assert slow + fast == 2
    retries = sum(r.stats.retries for r in cluster.replicas)
    if slow:
        assert retries >= 1


def test_epaxos_fast_path_cheaper_quorum_than_caesar():
    """EPaxos contacts one node fewer, so its unloaded fast path is faster."""
    caesar_latency, _ = order_single_command("caesar")
    epaxos_latency, _ = order_single_command("epaxos")
    assert epaxos_latency < caesar_latency


def test_message_footprint_per_command(results_dir):
    """Messages and codec-measured bytes to order a single command, per protocol.

    Byte counts come from the runtime registry's codec (the canonical wire
    encoding of every message actually sent), not from per-protocol size
    estimates.  The per-protocol bytes-per-decision land in the committed
    BENCH record, so a wire-format change shows up as a diff of that file.
    """
    counts = {}
    events = 0
    for protocol in ("caesar", "epaxos", "multipaxos", "mencius", "m2paxos"):
        _, cluster = order_single_command(protocol)
        stats = cluster.network.stats
        counts[protocol] = (stats.messages_sent, stats.codec_bytes_sent)
        events += cluster.sim.steps_executed

    table = "\n".join(
        f"{name:>12}: {messages:3d} messages, {wire_bytes:5d} wire bytes for one command"
        for name, (messages, wire_bytes) in sorted(counts.items()))
    # The one record that is not a figure sweep: its event count is the five
    # clusters' own, and it goes through the same writer as the figures.
    record = PerfRecord(
        name="micro_message_footprint", events_executed=events,
        extra={"codec_bytes_per_decision": {name: pair[1] for name, pair in counts.items()}})
    write_record(record, table, results_dir)
    messages = {name: pair[0] for name, pair in counts.items()}
    wire_bytes = {name: pair[1] for name, pair in counts.items()}
    # Multi-leader quorum protocols broadcast to everyone: at least 3N messages.
    assert messages["caesar"] >= 15
    # Multi-Paxos concentrates messages on the leader but still commits to all.
    assert messages["multipaxos"] >= 9
    # Every sent message was measured through the codec.
    assert all(size > 0 for size in wire_bytes.values())
