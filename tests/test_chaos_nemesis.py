"""Unit tests for the fault data plane, the nemesis, and delivery semantics.

Includes the pinned regressions for the in-flight delivery audit: messages
heading towards a node that crashes (even with a later restart) or a link
that partitions while the message is on the wire must be *dropped*, never
silently delivered after the fact.
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import LinkFaults, cross_links, symmetric_links
from repro.chaos.nemesis import (
    CONFORMANCE_SCHEDULES,
    NEMESIS_SCHEDULES,
    ClockSkewFault,
    DelaySpikeFault,
    Nemesis,
    NemesisPlan,
    PartitionFault,
    build_schedule,
    random_plan,
)
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.random import DeterministicRandom
from repro.sim.simulator import Simulator
from repro.sim.topology import uniform_topology


class RecorderNode(Node):
    """Node that records every handled message as ``(src, payload, time)``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle_message(self, src: int, message: object) -> None:
        self.handled.append((src, message, self.sim.now))


def build_nodes(n: int = 3, rtt: float = 20.0, seed: int = 1):
    sim = Simulator(seed=seed)
    network = Network(sim, uniform_topology(n, rtt_ms=rtt), NetworkConfig())
    nodes = [RecorderNode(i, sim, network) for i in range(n)]
    return sim, network, nodes


def install_faults(sim, network, nodes) -> LinkFaults:
    faults = LinkFaults(sim, network, sim.rng.fork("nemesis"))
    for node in nodes:
        node.transport.install_fault_filter(faults)
    return faults


def payloads(node) -> list:
    return [message for _, message, _ in node.handled]


class TestLinkFaults:
    def test_queue_block_holds_and_releases_in_order(self):
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.block([(0, 1)])
        nodes[0].send(1, "m1")
        nodes[0].send(1, "m2")
        sim.run(until=100.0)
        assert payloads(nodes[1]) == []
        assert faults.held_messages == 2
        faults.unblock([(0, 1)])
        sim.run(until=200.0)
        assert payloads(nodes[1]) == ["m1", "m2"]
        assert faults.stats.messages_held == 2
        assert faults.stats.messages_released == 2

    def test_drop_block_loses_messages_for_good(self):
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.block([(0, 1)], mode="drop")
        nodes[0].send(1, "gone")
        faults.unblock([(0, 1)])
        sim.run(until=200.0)
        assert payloads(nodes[1]) == []
        assert faults.stats.messages_dropped_on_block == 1
        assert faults.stats.messages_released == 0

    def test_block_is_per_direction(self):
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.block(cross_links([0], [1]))
        nodes[0].send(1, "blocked")
        nodes[1].send(0, "free")
        sim.run(until=100.0)
        assert payloads(nodes[1]) == []
        assert payloads(nodes[0]) == ["free"]

    def test_symmetric_links_cover_both_directions(self):
        links = symmetric_links([0, 1], [2])
        assert set(links) == {(0, 2), (1, 2), (2, 0), (2, 1)}

    def test_certain_loss_drops_everything(self):
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.set_loss([(0, 1)], 1.0)
        for i in range(5):
            nodes[0].send(1, f"m{i}")
        sim.run(until=100.0)
        assert payloads(nodes[1]) == []
        assert faults.stats.messages_dropped_by_loss == 5

    def test_certain_duplication_delivers_twice(self):
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.set_duplication([(0, 1)], 1.0)
        nodes[0].send(1, "twin")
        sim.run(until=100.0)
        assert payloads(nodes[1]) == ["twin", "twin"]
        assert faults.stats.messages_duplicated == 1

    def test_delay_spike_postpones_delivery(self):
        sim, network, nodes = build_nodes(rtt=20.0)
        faults = install_faults(sim, network, nodes)
        faults.set_delay_spike([(0, 1)], extra_ms=50.0)
        nodes[0].send(1, "late")
        sim.run(until=200.0)
        assert payloads(nodes[1]) == ["late"]
        _, _, when = nodes[1].handled[0]
        # 50ms spike + 10ms one-way delay (+ CPU dispatch epsilon).
        assert when >= 60.0

    def test_self_sends_never_intercepted(self):
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.block(cross_links([0], [0, 1, 2]))
        faults.set_loss(cross_links([0], [0, 1, 2]), 1.0)
        nodes[0].send(0, "to-myself")
        sim.run(until=100.0)
        assert payloads(nodes[0]) == ["to-myself"]

    def test_delayed_message_respects_block_installed_meanwhile(self):
        """A spiking message must not tunnel through a partition that starts
        while it is waiting out its extra delay."""
        sim, network, nodes = build_nodes()
        faults = install_faults(sim, network, nodes)
        faults.set_delay_spike([(0, 1)], extra_ms=50.0)
        nodes[0].send(1, "tunneled?")
        sim.schedule(10.0, lambda: faults.block([(0, 1)]))
        sim.run(until=200.0)
        assert payloads(nodes[1]) == []
        assert faults.held_messages == 1
        faults.unblock([(0, 1)])
        sim.run(until=300.0)
        assert payloads(nodes[1]) == ["tunneled?"]


class TestInFlightDeliverySemantics:
    """Pinned regressions: a crash kills the messages in flight towards the node."""

    def test_in_flight_message_across_crash_restart_is_dropped(self):
        sim, network, nodes = build_nodes(rtt=20.0)
        nodes[0].send(1, "doomed")  # one-way delay 10ms
        sim.schedule(2.0, nodes[1].crash)
        sim.schedule(5.0, nodes[1].restart)
        sim.run(until=100.0)
        assert not nodes[1].crashed
        assert payloads(nodes[1]) == []
        assert network.stats.messages_dead_in_flight == 1

    def test_message_sent_after_restart_is_delivered(self):
        sim, network, nodes = build_nodes(rtt=20.0)
        sim.schedule(2.0, nodes[1].crash)
        sim.schedule(5.0, nodes[1].restart)
        sim.schedule(6.0, lambda: nodes[0].send(1, "fresh"))
        sim.run(until=100.0)
        assert payloads(nodes[1]) == ["fresh"]
        assert network.stats.messages_dead_in_flight == 0

    def test_crash_records_crash_time(self):
        sim, network, nodes = build_nodes()
        assert nodes[1].last_crashed_at == -1.0
        sim.schedule(42.0, nodes[1].crash)
        sim.run(until=50.0)
        assert nodes[1].last_crashed_at == pytest.approx(42.0)


class TestClockSkew:
    def test_timer_scale_stretches_timer_delays(self):
        sim, network, nodes = build_nodes()
        fired = []
        nodes[0].timer_scale = 2.0
        nodes[0].set_timer(10.0, lambda: fired.append(sim.now))
        nodes[1].set_timer(10.0, lambda: fired.append(sim.now))
        sim.run(until=100.0)
        assert fired == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_unit_scale_is_exact(self):
        sim, network, nodes = build_nodes()
        fired = []
        nodes[0].set_timer(7.3, lambda: fired.append(sim.now))
        sim.run(until=100.0)
        assert fired == [7.3]


class TestNemesis:
    def test_plan_quiesced_at_covers_every_fault(self):
        plan = NemesisPlan("p", (
            PartitionFault(at_ms=100.0, heal_at_ms=700.0, groups=((0, 1, 2), (3, 4))),
            DelaySpikeFault(at_ms=200.0, until_ms=900.0, extra_ms=10.0),))
        assert plan.quiesced_at_ms == 900.0

    def test_named_schedules_build_and_quiesce_within_window(self):
        for name in NEMESIS_SCHEDULES:
            plan = build_schedule(name, 5, 1000.0, 2000.0)
            assert plan.name == name
            assert plan.faults
            assert plan.quiesced_at_ms <= 3000.0 + 1e-9

    def test_unknown_schedule_raises(self):
        with pytest.raises(ValueError, match="unknown nemesis schedule"):
            build_schedule("nope", 5, 0.0, 1.0)

    def test_conformance_set_covers_whole_library(self):
        # Since the runtime retransmission + catch-up layer, every named
        # schedule — the lossy pair included — is a conformance obligation.
        assert set(CONFORMANCE_SCHEDULES) == set(NEMESIS_SCHEDULES)

    def test_only_the_known_pair_of_schedules_is_lossy(self):
        from repro.chaos.nemesis import CrashFault, LossFault

        lossy = set()
        for name in CONFORMANCE_SCHEDULES:
            plan = build_schedule(name, 5, 0.0, 1000.0)
            for fault in plan.faults:
                if (isinstance(fault, (LossFault, CrashFault))
                        or getattr(fault, "mode", "queue") != "queue"):
                    lossy.add(name)
        assert lossy == {"crash-restart", "flaky-links"}

    def test_nemesis_applies_and_heals_partition_on_schedule(self):
        cluster = build_cluster(ClusterConfig(protocol="caesar", seed=1))
        plan = NemesisPlan("p", (
            PartitionFault(at_ms=100.0, heal_at_ms=300.0, groups=((0, 1, 2), (3, 4))),))
        nemesis = Nemesis(cluster, plan)
        cluster.sim.run(until=150.0)
        assert nemesis.faults.is_blocked(0, 3)
        assert nemesis.faults.is_blocked(3, 0)
        assert not nemesis.faults.is_blocked(0, 1)
        cluster.sim.run(until=350.0)
        assert not nemesis.faults.is_blocked(0, 3)
        assert [what for _, what in nemesis.log] == [
            "partition ((0, 1, 2), (3, 4)) [queue, 12 links]",
            "heal partition ((0, 1, 2), (3, 4))"]

    def test_clock_skew_fault_sets_and_restores_scale(self):
        cluster = build_cluster(ClusterConfig(protocol="caesar", seed=1))
        plan = NemesisPlan("p", (
            ClockSkewFault(at_ms=100.0, until_ms=300.0, node_id=2, factor=4.0),))
        Nemesis(cluster, plan)
        cluster.sim.run(until=150.0)
        assert cluster.replicas[2].timer_scale == 4.0
        cluster.sim.run(until=350.0)
        assert cluster.replicas[2].timer_scale == 1.0

    def test_ensure_quiesced_force_heals(self):
        cluster = build_cluster(ClusterConfig(protocol="caesar", seed=1))
        plan = NemesisPlan("no-heal", (
            PartitionFault(at_ms=10.0, heal_at_ms=10_000.0, groups=((0, 1, 2), (3, 4))),))
        nemesis = Nemesis(cluster, plan)
        cluster.sim.run(until=50.0)
        assert nemesis.faults.is_blocked(0, 4)
        nemesis.ensure_quiesced()
        assert not nemesis.faults.is_blocked(0, 4)
        assert nemesis.faults.held_messages == 0

    def test_random_plan_is_deterministic_per_coordinates(self):
        root = DeterministicRandom(9)
        plan_a = random_plan(root.fork_cell(("chaos", 9, 0)), 5, 100.0, 1000.0)
        plan_b = random_plan(DeterministicRandom(9).fork_cell(("chaos", 9, 0)),
                             5, 100.0, 1000.0)
        assert plan_a == plan_b
        plan_c = random_plan(root.fork_cell(("chaos", 9, 1)), 5, 100.0, 1000.0)
        assert plan_c != plan_a

    def test_random_plan_heals_within_window(self):
        rng = DeterministicRandom(4)
        for index in range(10):
            plan = random_plan(rng.fork_cell(("w", index)), 5, 500.0, 2000.0,
                               include_lossy=True)
            assert plan.quiesced_at_ms <= 2500.0 + 1e-9
