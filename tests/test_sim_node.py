"""Unit tests for the simulated node (CPU model, timers, crash semantics)."""

from __future__ import annotations

import pytest

from repro.runtime.costs import CostModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.sim.topology import uniform_topology


class EchoNode(Node):
    """Test node that records handled messages and can reply."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle_message(self, src: int, message: object) -> None:
        self.handled.append((src, message, self.sim.now))
        if message == "ping":
            self.send(src, "pong")


def build_pair(cost: float = 0.0):
    sim = Simulator(seed=1)
    network = Network(sim, uniform_topology(2, rtt_ms=10.0))
    cost_model = CostModel(default_cost_ms=cost)
    a = EchoNode(0, sim, network, cost_model)
    b = EchoNode(1, sim, network, cost_model)
    return sim, a, b


class TestMessaging:
    def test_request_reply_round_trip(self):
        sim, a, b = build_pair()
        a.send(1, "ping")
        sim.run()
        assert b.handled[0][1] == "ping"
        assert a.handled[0][1] == "pong"
        assert sim.now == pytest.approx(10.0, abs=0.5)

    def test_broadcast_includes_self_by_default(self):
        sim, a, b = build_pair()
        a.broadcast("hello")
        sim.run()
        assert any(m == "hello" for _, m, _ in a.handled)
        assert any(m == "hello" for _, m, _ in b.handled)

    def test_broadcast_can_exclude_self(self):
        sim, a, b = build_pair()
        a.broadcast("hello", include_self=False)
        sim.run()
        assert not any(m == "hello" for _, m, _ in a.handled)
        assert [m for _, m, _ in b.handled] == ["hello"]

    def test_messages_handled_counter(self):
        sim, a, b = build_pair()
        a.send(1, "one")
        a.send(1, "two")
        sim.run()
        assert b.messages_handled == 2


class TestCpuModel:
    def test_serial_processing_queues_messages(self):
        sim, a, b = build_pair(cost=5.0)
        a.send(1, "first")
        a.send(1, "second")
        sim.run()
        first_time = b.handled[0][2]
        second_time = b.handled[1][2]
        assert second_time - first_time == pytest.approx(5.0)
        assert b.cpu_busy_ms == pytest.approx(10.0)

    def test_consume_cpu_pushes_backlog(self):
        sim, a, _ = build_pair()
        a.consume_cpu(7.0)
        assert a.cpu_backlog_ms == pytest.approx(7.0)
        assert a.cpu_busy_ms == pytest.approx(7.0)

    def test_consume_cpu_ignores_nonpositive(self):
        _, a, _ = build_pair()
        a.consume_cpu(0.0)
        a.consume_cpu(-3.0)
        assert a.cpu_busy_ms == 0.0


class TestTimers:
    def test_timer_fires_after_delay(self):
        sim, a, _ = build_pair()
        fired = []
        a.set_timer(12.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [12.0]

    def test_cancelled_timer_does_not_fire(self):
        sim, a, _ = build_pair()
        fired = []
        timer = a.set_timer(12.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled


class TestCrashSemantics:
    def test_crashed_node_stops_receiving(self):
        sim, a, b = build_pair()
        b.crash()
        a.send(1, "ping")
        sim.run()
        assert b.handled == []

    def test_crashed_node_stops_sending(self):
        sim, a, b = build_pair()
        a.crash()
        a.send(1, "ping")
        sim.run()
        assert b.handled == []

    def test_crashed_node_timers_suppressed(self):
        sim, a, _ = build_pair()
        fired = []
        a.set_timer(5.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_restart_allows_receiving_again(self):
        sim, a, b = build_pair()
        b.crash()
        b.restart()
        a.send(1, "ping")
        sim.run()
        assert [m for _, m, _ in b.handled] == ["ping"]

    def test_crash_hooks_invoked(self):
        events = []

        class HookNode(EchoNode):
            def on_crash(self):
                events.append("crash")

            def on_restart(self):
                events.append("restart")

        sim = Simulator()
        network = Network(sim, uniform_topology(1, rtt_ms=1.0))
        node = HookNode(0, sim, network)
        node.crash()
        node.restart()
        assert events == ["crash", "restart"]


class TestCostModel:
    def test_per_type_override(self):
        model = CostModel(default_cost_ms=1.0, per_type_ms={"str": 4.0})
        assert model.message_cost("a string") == 4.0
        assert model.message_cost(123) == 1.0

    def test_dependency_cost_scales_linearly(self):
        model = CostModel(per_dependency_ms=0.5)
        assert model.dependency_cost(4) == pytest.approx(2.0)
        assert model.dependency_cost(0) == 0.0
        assert model.dependency_cost(-1) == 0.0

    def test_scaled_model(self):
        model = CostModel(default_cost_ms=1.0, per_type_ms={"str": 2.0},
                          per_dependency_ms=0.1, client_request_ms=0.5)
        scaled = model.scaled(2.0)
        assert scaled.default_cost_ms == 2.0
        assert scaled.per_type_ms["str"] == 4.0
        assert scaled.per_dependency_ms == pytest.approx(0.2)
        assert scaled.client_request_ms == 1.0
