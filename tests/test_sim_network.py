"""Unit tests for the simulated network."""

from __future__ import annotations

import random

import pytest

from repro.sim.network import MIN_DELAY_MS, Network, NetworkConfig
from repro.sim.random import derive_seed
from repro.sim.simulator import Simulator
from tests.conftest import drain, uniform_topology


class RecordingNode:
    """Minimal node double that records everything it receives."""

    def __init__(self, node_id: int, crashed: bool = False) -> None:
        self.node_id = node_id
        self.crashed = crashed
        self.last_crashed_at = -1.0
        self.received = []

    def receive(self, src: int, message: object) -> None:
        self.received.append((src, message))


def build_network(n: int = 3, rtt: float = 20.0, **config_kwargs):
    sim = Simulator(seed=5)
    network = Network(sim, uniform_topology(n, rtt_ms=rtt), NetworkConfig(**config_kwargs))
    nodes = [RecordingNode(i) for i in range(n)]
    for node in nodes:
        network.register(node)
    return sim, network, nodes


class TestDelivery:
    def test_message_delivered_after_one_way_delay(self):
        sim, network, nodes = build_network(rtt=20.0)
        network.send(0, 1, "hello")
        drain(sim)
        assert nodes[1].received == [(0, "hello")]
        assert sim.now == pytest.approx(10.0)

    def test_self_message_uses_local_delay(self):
        sim, network, nodes = build_network()
        network.send(2, 2, "loopback")
        drain(sim)
        assert nodes[2].received == [(2, "loopback")]
        assert sim.now < 1.0

    def test_duplicate_registration_rejected(self):
        _, network, nodes = build_network()
        with pytest.raises(ValueError):
            network.register(nodes[0])

    def test_stats_count_messages(self):
        sim, network, _ = build_network()
        for dst in range(3):
            network.send(0, dst, "m")
        assert network.stats.messages_sent == 3
        assert network.stats.messages_delivered == 0
        drain(sim)
        assert network.stats.messages_sent == 3
        assert network.stats.messages_delivered == 3

    def test_crashed_destination_drops_message(self):
        sim, network, nodes = build_network()
        nodes[1].crashed = True
        network.send(0, 1, "to-dead-node")
        drain(sim)
        assert nodes[1].received == []
        assert network.stats.messages_to_crashed == 1


class TestImpairments:
    def test_jitter_changes_delay_but_not_order_stats(self):
        sim, network, nodes = build_network(rtt=20.0, jitter_ms=2.0)
        network.send(0, 1, "jittered")
        drain(sim)
        assert len(nodes[1].received) == 1
        assert sim.now != 10.0  # the one-way delay plus a sampled, nonzero jitter

    def test_delay_never_below_floor(self):
        sim, network, nodes = build_network(rtt=0.0)
        network.send(0, 1, "zero-latency")
        drain(sim)
        assert nodes[1].received == [(0, "zero-latency")]
        assert sim.now == MIN_DELAY_MS

    @pytest.mark.parametrize("seed, jitter", [(5, 3.0), (7001, 0.5), (123456, 40.0)])
    def test_inline_jitter_is_random_gauss_on_the_forked_seed(self, seed, jitter):
        """The network's own jitter draw is ``random.Random.gauss``, float for
        float, on the ``"network"`` fork of the simulator seed; self-sends draw
        nothing.  Every delivery is pushed at ``now`` = 0.0, so its time is its
        delay."""
        sim = Simulator(seed=seed)
        network = Network(sim, uniform_topology(3, rtt_ms=40.0), NetworkConfig(jitter_ms=jitter))
        reference = random.Random(derive_seed(seed, ("network",)))
        expected = []
        for draw in range(10_001):
            network.send(2, 2, "self")  # between two draws, inside a pair
            src, dst = (0, 1) if draw % 2 else (1, 2)
            network.send(src, dst, draw)
            expected.append(max(MIN_DELAY_MS, 20.0 + reference.gauss(0.0, jitter)))
        delays = [entry[0] for entry in sorted(sim._queue._heap, key=lambda entry: entry[1])
                  if entry[3][2] != "self"]
        assert delays == expected
        assert network._jitter.gauss_next == reference.gauss_next

    def test_jitter_cannot_push_delay_below_floor(self):
        sim, network, nodes = build_network(rtt=0.1, jitter_ms=5.0)
        samples = []
        nodes[1].receive = lambda src, message: samples.append(sim.now)
        for _ in range(200):
            network.send(0, 1, "jittered")
        drain(sim)
        assert len(samples) == 200
        assert min(samples) == MIN_DELAY_MS
        assert max(samples) > MIN_DELAY_MS
