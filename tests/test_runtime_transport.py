"""Tests for the transport seam: batching determinism and wire accounting."""

from __future__ import annotations

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime.batching import BatchingConfig
from repro.runtime.transport import SimulatorTransport
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from tests.conftest import run_until_executed, uniform_topology


def _delivery_order(result) -> list:
    """Per-replica executed-command sequences — the observable delivery order."""
    return [[command.command_id for command in replica.execution_log]
            for replica in result.cluster.replicas]


class TestBatchingDeterminism:
    """Transport batching must not cost reproducibility or change outcomes."""

    CONFIG = dict(protocol="caesar", conflict_rate=0.2, clients_per_site=3,
                  duration_ms=2000.0, warmup_ms=500.0, seed=21)

    def test_same_seed_same_delivery_order_with_batching(self):
        """Batching on: two same-seed runs deliver byte-identically."""
        batching = BatchingConfig(window_ms=2.0, max_messages=16)
        first = run_experiment(ExperimentConfig(batching=batching, **self.CONFIG))
        second = run_experiment(ExperimentConfig(batching=batching, **self.CONFIG))
        assert _delivery_order(first) == _delivery_order(second)

    def test_same_seed_same_delivery_order_without_batching(self):
        """Batching off: same-seed runs are equally reproducible."""
        first = run_experiment(ExperimentConfig(**self.CONFIG))
        second = run_experiment(ExperimentConfig(**self.CONFIG))
        assert _delivery_order(first) == _delivery_order(second)

    def test_batching_on_off_agree_on_outcome(self):
        """Batching changes timing, never correctness: the same fixed workload
        under the same seed executes the same command set everywhere, with
        zero cross-replica conflicting-order violations, in both modes."""
        from repro.consensus.command import Command
        from repro.harness.cluster import ClusterConfig, build_cluster

        outcomes = {}
        for label, batching in (("off", None),
                                ("on", BatchingConfig(window_ms=2.0, max_messages=16))):
            cluster = build_cluster(ClusterConfig(protocol="caesar", seed=21,
                                                  batching=batching))
            commands = [Command(command_id=(origin, n), key=f"k{n % 3}",
                                operation="put", value=str(n), origin=origin)
                        for origin in range(cluster.size) for n in range(4)]
            for command in commands:
                cluster.replica(command.origin).submit(command)
            done = run_until_executed(cluster, [c.command_id for c in commands],
                                      deadline_ms=60000)
            assert done, f"batching {label}: workload did not complete"
            assert cluster.check_consistency() == []
            outcomes[label] = {c.command_id
                               for c in cluster.replicas[0].execution_log}
        assert outcomes["off"] == outcomes["on"]


class _Probe(Node):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []

    def handle_message(self, src: int, message: object) -> None:
        self.seen.append(message)


class TestWireAccounting:
    def build(self, wire_accounting: bool):
        sim = Simulator(seed=3)
        network = Network(sim, uniform_topology(2, rtt_ms=10.0),
                          NetworkConfig(wire_accounting=wire_accounting))
        sender = _Probe(0, sim, network)
        receiver = _Probe(1, sim, network)
        return sim, network, sender, receiver

    def test_codec_bytes_recorded_when_enabled(self):
        from repro.sim.failures import Heartbeat

        sim, network, sender, _ = self.build(wire_accounting=True)
        message = Heartbeat(sender=0, sequence=1)
        sender.send(1, message)
        sim.run()
        from repro.runtime.registry import WIRE
        assert network.stats.codec_bytes_sent == WIRE.wire_size(message)
        assert network.stats.per_type_codec_bytes == {"Heartbeat": WIRE.wire_size(message)}

    def test_accounting_off_by_default(self):
        from repro.sim.failures import Heartbeat

        sim, network, sender, _ = self.build(wire_accounting=False)
        sender.send(1, Heartbeat(sender=0, sequence=1))
        sim.run()
        assert network.stats.codec_bytes_sent == 0
        assert network.stats.per_type_codec_bytes == {}

    def test_batched_wire_bytes_measure_the_envelope(self):
        from repro.sim.failures import Heartbeat

        sim, network, sender, receiver = self.build(wire_accounting=True)
        sender.enable_batching(BatchingConfig(window_ms=5.0, max_messages=10))
        messages = [Heartbeat(sender=0, sequence=n) for n in range(3)]
        for message in messages:
            sender.send(1, message)
        sim.run()
        assert receiver.seen == messages
        from repro.runtime.registry import WIRE
        inner_total = sum(WIRE.wire_size(m) for m in messages)
        # One batch on the wire: envelope bytes exceed the payload sum.
        assert network.stats.codec_bytes_sent > inner_total
        assert set(network.stats.per_type_codec_bytes) == {"MessageBatch"}


class TestTransportSeam:
    def test_node_owns_a_simulator_transport(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(2, rtt_ms=10.0))
        node = _Probe(0, sim, network)
        assert isinstance(node.transport, SimulatorTransport)
        assert node.transport.node_ids == [0]

    def test_transport_broadcast_respects_include_self(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(3, rtt_ms=10.0))
        nodes = [_Probe(i, sim, network) for i in range(3)]
        nodes[0].transport.broadcast("hello", include_self=False)
        sim.run()
        assert nodes[0].seen == []
        assert nodes[1].seen == ["hello"]
        assert nodes[2].seen == ["hello"]

    def test_quorum_tracker_threshold_semantics(self):
        from repro.runtime.kernel import QuorumTracker

        tracker = QuorumTracker(3, extra_votes=1)
        assert not tracker.vote(1, "a")
        assert tracker.vote(2, "b")
        assert tracker.reached
        assert list(tracker.payloads()) == ["a", "b"]
        assert tracker.voters() == [1, 2]
        # Re-votes replace, never double count.
        tracker2 = QuorumTracker(3)
        tracker2.vote(1, "x")
        assert not tracker2.vote(1, "y")
        assert list(tracker2.payloads()) == ["y"]

    def test_kernel_rejects_unknown_message_types(self):
        from repro.harness.cluster import build_cluster

        cluster = build_cluster()
        with pytest.raises(TypeError):
            cluster.replicas[0].handle_message(1, object())
