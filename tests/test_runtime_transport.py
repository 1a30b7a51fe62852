"""Tests for the transport seam: batching determinism and wire accounting."""

from __future__ import annotations

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime.transport import SimulatorTransport
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from tests.conftest import drain, ignore, run_until_executed, uniform_topology


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
        first = run_experiment(ExperimentConfig(batching=True, **self.CONFIG))
        second = run_experiment(ExperimentConfig(batching=True, **self.CONFIG))
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
        for label, batching in (("off", False), ("on", True)):
            cluster = build_cluster(ClusterConfig(protocol="caesar", seed=21,
                                                  batching=batching))
            commands = [Command(command_id=(origin, n), key=f"k{n % 3}",
                                operation="put", value=str(n), origin=origin)
                        for origin in range(cluster.size) for n in range(4)]
            for command in commands:
                cluster.replica(command.origin).submit(command, ignore)
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


class TestTransportSeam:
    def test_node_owns_a_simulator_transport(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(2, rtt_ms=10.0), NetworkConfig())
        node = _Probe(0, sim, network, cost_model=None)
        assert isinstance(node.transport, SimulatorTransport)

    def test_transport_broadcast_respects_include_self(self):
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(3, rtt_ms=10.0), NetworkConfig())
        nodes = [_Probe(i, sim, network, cost_model=None) for i in range(3)]
        nodes[0].transport.broadcast("hello", include_self=False)
        drain(sim)
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
        from repro.harness.cluster import ClusterConfig, build_cluster

        cluster = build_cluster(ClusterConfig())
        with pytest.raises(TypeError):
            cluster.replicas[0].handle_message(1, object())
