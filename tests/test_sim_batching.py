"""Unit and integration tests for network message batching."""

from __future__ import annotations

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime import batching
from repro.runtime.batching import BatchBuffer
from repro.runtime.costs import CostModel, throughput_cost_model
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from tests.conftest import drain, uniform_topology


def set_policy(monkeypatch, window_ms=batching.WINDOW_MS, max_messages=batching.MAX_MESSAGES):
    """Patch the batching constants for one test."""
    monkeypatch.setattr(batching, "WINDOW_MS", window_ms)
    monkeypatch.setattr(batching, "MAX_MESSAGES", max_messages)


class TestBatchBuffer:
    def test_add_and_drain(self, monkeypatch):
        set_policy(monkeypatch, max_messages=3)
        buffer = BatchBuffer()
        assert not buffer.add(1, "a")
        assert not buffer.add(1, "b")
        assert buffer.has_pending(1)
        assert buffer.drain(1).messages == ("a", "b")
        assert not buffer.has_pending(1)

    def test_full_signal_at_max(self, monkeypatch):
        set_policy(monkeypatch, max_messages=2)
        buffer = BatchBuffer()
        assert not buffer.add(1, "a")
        assert buffer.add(1, "b")

    def test_destinations_tracked_independently(self):
        buffer = BatchBuffer()
        buffer.add(1, "a")
        buffer.add(2, "b")
        assert buffer.has_pending(1) and buffer.has_pending(2)
        buffer.drain(1)
        assert not buffer.has_pending(1) and buffer.has_pending(2)


class CountingNode(Node):
    """Node that counts every protocol message it handles."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []

    def handle_message(self, src: int, message: object) -> None:
        self.seen.append(message)


class TestNodeBatching:
    @pytest.fixture(autouse=True)
    def _policy(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def build(self, window_ms=5.0, max_messages=10, cost_model=None):
        set_policy(self.monkeypatch, window_ms, max_messages)
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(2, rtt_ms=10.0), NetworkConfig())
        network.batching = True
        sender = CountingNode(0, sim, network, cost_model)
        receiver = CountingNode(1, sim, network, cost_model)
        return sim, network, sender, receiver

    def test_messages_within_window_coalesce(self):
        sim, network, sender, receiver = self.build()
        for i in range(4):
            sender.send(1, f"m{i}")
        drain(sim)
        # One wire message (the batch), four protocol messages handled.
        assert network.stats.messages_sent == 1
        assert receiver.seen == ["m0", "m1", "m2", "m3"]

    def test_batch_flushes_when_full(self):
        sim, network, sender, receiver = self.build(window_ms=1000.0, max_messages=2)
        sender.send(1, "a")
        sender.send(1, "b")
        sender.send(1, "c")
        sim.run(until=50.0)
        # The first two flushed immediately as a full batch; the third waits
        # for its window (1000 ms) and has not been delivered yet.
        assert receiver.seen == ["a", "b"]

    def test_self_messages_bypass_batching(self):
        sim, network, sender, _ = self.build(window_ms=1000.0)
        sender.send(0, "to-self")
        sim.run(until=10.0)
        assert sender.seen == ["to-self"]

    def test_crash_discards_the_open_batch_and_restart_batches_again(self):
        """A crash while the window is open used to strand the destination:
        the crash-gated flush timer fired as a no-op, the scheduled flag stayed
        set, and nothing went out after the restart until ``max_messages``
        piled up — the pre-crash message resurrected among them."""
        sim, network, sender, receiver = self.build(window_ms=2.0, max_messages=32)
        arrivals = []
        receiver.handle_message = lambda src, message: arrivals.append((message, sim.now))
        sender.send(1, "pre")
        sim.schedule(1.0, sender.crash)
        sim.schedule(5.0, sender.restart)
        sim.schedule(6.0, lambda: sender.send(1, "post"))
        sim.run(until=1000.0)
        # Sent at 6 ms + one 2 ms window + 5 ms one-way delay (+ receive cost).
        assert [message for message, _ in arrivals] == ["post"]
        assert arrivals[0][1] == pytest.approx(13.0, abs=0.5)
        assert not sender.transport._buffer.has_pending(1)

    def test_batched_cpu_cost_is_discounted(self):
        sim, network, sender, receiver = self.build(cost_model=CostModel(default_cost_ms=1.0))
        for i in range(4):
            sender.send(1, f"m{i}")
        drain(sim)
        # 1 envelope at full cost + 4 messages at 0.25 => 2.0 ms, vs 4.0 unbatched.
        assert receiver.cpu_busy_ms == pytest.approx(2.0)


class TestBatchingEndToEnd:
    def test_caesar_correct_with_batching_enabled(self):
        result = run_experiment(ExperimentConfig(
            protocol="caesar", conflict_rate=0.2, clients_per_site=3, duration_ms=2000.0,
            warmup_ms=500.0, seed=8, batching=True))
        assert result.metrics.count > 0
        assert result.consistency_violations == 0

    def test_batching_improves_saturated_throughput(self):
        common = dict(protocol="caesar", conflict_rate=0.0, clients_per_site=40,
                      duration_ms=3000.0, warmup_ms=1000.0, seed=9,
                      cost_model=throughput_cost_model())
        without = run_experiment(ExperimentConfig(**common))
        with_batching = run_experiment(ExperimentConfig(batching=True, **common))
        assert (with_batching.throughput_per_second
                > without.throughput_per_second * 1.1)
