"""Unit tests for crash injection and the failure detector."""

from __future__ import annotations

import pytest

from repro.sim import failures
from repro.sim.failures import CrashInjector, FailureDetector, Heartbeat, ScheduledCrash
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from tests.conftest import drain, uniform_topology


@pytest.fixture(autouse=True)
def fast_detector(monkeypatch):
    """Heartbeats every 20 ms and suspicion after 100 ms of silence."""
    monkeypatch.setattr(failures, "HEARTBEAT_EVERY_MS", 20.0)
    monkeypatch.setattr(failures, "SUSPECT_AFTER_MS", 100.0)


class DetectorNode(Node):
    """Node that wires incoming heartbeats into its failure detector."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.detector = None
        self.suspected = []
        #: every received heartbeat as ``(sender, arrival time)``.
        self.heartbeats_seen = []

    def attach_detector(self, peer_ids):
        self.detector = FailureDetector(owner=self, peer_ids=peer_ids,
                                        on_suspect=self.suspected.append)
        self.detector.start()

    def handle_message(self, src: int, message: object) -> None:
        if isinstance(message, Heartbeat):
            self.heartbeats_seen.append((message.sender, self.sim.now))
            if self.detector is not None:
                self.detector.observe_heartbeat(message)


def build_detector_cluster(n: int = 3):
    sim = Simulator(seed=1)
    network = Network(sim, uniform_topology(n, rtt_ms=10.0), NetworkConfig())
    nodes = [DetectorNode(i, sim, network, cost_model=None) for i in range(n)]
    for node in nodes:
        node.attach_detector(list(range(n)))
    return sim, nodes


def node_2_crashed_at_100_ms():
    """:func:`build_detector_cluster` run to 100 ms, then node 2 crashed."""
    sim, nodes = build_detector_cluster()
    sim.run(until=100.0)
    nodes[2].crash()
    return sim, nodes


def one_node_injector():
    """Node 0 alone on a 5 ms network and a crash injector over it."""
    sim = Simulator(seed=0)
    network = Network(sim, uniform_topology(1, rtt_ms=5.0), NetworkConfig())
    nodes = {0: DetectorNode(0, sim, network, cost_model=None)}
    return sim, nodes, CrashInjector(sim, nodes)

class TestCrashInjector:
    def test_scheduled_crash_happens_at_time(self):
        sim = Simulator(seed=0)
        network = Network(sim, uniform_topology(2, rtt_ms=5.0), NetworkConfig())
        nodes = {i: DetectorNode(i, sim, network, cost_model=None) for i in range(2)}
        injector = CrashInjector(sim, nodes)
        injector.schedule(ScheduledCrash(node_id=1, crash_at_ms=50.0))
        sim.run(until=40.0)
        assert not nodes[1].crashed
        sim.run(until=60.0)
        assert nodes[1].crashed

    def test_scheduled_restart(self):
        sim, nodes, injector = one_node_injector()
        injector.schedule(ScheduledCrash(node_id=0, crash_at_ms=10.0, restart_at_ms=30.0))
        sim.run(until=20.0)
        assert nodes[0].crashed
        sim.run(until=40.0)
        assert not nodes[0].crashed

    def test_crash_now(self):
        """A crash planned for the current instant happens on the next step."""
        sim, nodes, injector = one_node_injector()
        injector.schedule(ScheduledCrash(node_id=0, crash_at_ms=sim.now))
        drain(sim)
        assert nodes[0].crashed

    def test_double_crash_recorded_once(self):
        sim, nodes, injector = one_node_injector()
        crashed_at = []
        crash = nodes[0].crash
        nodes[0].crash = lambda: (crashed_at.append(sim.now), crash())
        injector.schedule(ScheduledCrash(node_id=0, crash_at_ms=10.0))
        injector.schedule(ScheduledCrash(node_id=0, crash_at_ms=20.0))
        sim.run(until=30.0)
        assert crashed_at == [10.0]


class TestFailureDetector:
    def test_no_suspicion_while_heartbeats_flow(self):
        sim, nodes = build_detector_cluster()
        sim.run(until=500.0)
        assert all(node.suspected == [] for node in nodes)

    def test_crashed_peer_eventually_suspected(self):
        sim, nodes = node_2_crashed_at_100_ms()
        sim.run(until=500.0)
        assert 2 in nodes[0].suspected
        assert 2 in nodes[1].suspected

    def test_live_peers_not_suspected_after_crash_of_other(self):
        sim, nodes = build_detector_cluster()
        nodes[2].crash()
        sim.run(until=500.0)
        assert 1 not in nodes[0].suspected
        assert 0 not in nodes[1].suspected

    def test_suspicion_cleared_when_heartbeat_resumes(self):
        sim, nodes = node_2_crashed_at_100_ms()
        sim.run(until=400.0)
        assert 2 in nodes[0].detector.suspected
        nodes[2].restart()
        # The restarted node's timers were suppressed; restart its detector loop.
        nodes[2].detector.start()
        sim.run(until=800.0)
        assert 2 not in nodes[0].detector.suspected

    def test_observe_any_message_counts_as_liveness(self):
        sim, nodes = build_detector_cluster()
        detector = nodes[0].detector
        sim.run(until=50.0)
        detector.observe_any_message(1)
        assert 1 not in detector.suspected

    def test_stop_prevents_further_suspicions(self):
        """A crashed owner's detector stops: it neither checks nor suspects."""
        sim, nodes = build_detector_cluster()
        nodes[0].crash()
        nodes[2].crash()
        sim.run(until=500.0)
        assert nodes[0].suspected == []
        assert sorted(nodes[1].suspected) == [0, 2]

    def test_suspect_callback_fired_once_per_peer(self):
        sim, nodes = node_2_crashed_at_100_ms()
        sim.run(until=1000.0)
        assert nodes[0].suspected.count(2) == 1


class TestFailureDetectorTiming:
    """Suspicion must fire after — and only after — ``SUSPECT_AFTER_MS`` of silence."""

    def test_no_suspicion_before_silence_threshold(self):
        # Heartbeats every 20ms, suspicion after 100ms of silence; the last
        # heartbeat from node 2 lands around t=105 (sent at 100, 5ms one-way).
        sim, nodes = node_2_crashed_at_100_ms()
        sim.run(until=195.0)
        assert 2 not in nodes[0].detector.suspected

    def test_suspicion_fires_after_silence_threshold(self):
        sim, nodes = node_2_crashed_at_100_ms()
        sim.run(until=260.0)
        assert 2 in nodes[0].detector.suspected
        assert 2 in nodes[1].detector.suspected

    def test_heartbeat_resume_unsuspects(self):
        detector_owner = build_detector_cluster()[1][0]
        detector = detector_owner.detector
        detector.suspected.add(2)
        detector.observe_heartbeat(Heartbeat(sender=2, sequence=99))
        assert 2 not in detector.suspected

    def test_crashed_node_emits_no_heartbeats(self):
        sim, nodes = node_2_crashed_at_100_ms()
        # Allow anything already in flight at the crash instant to land.
        sim.run(until=120.0)
        seen_before = sum(1 for sender, _ in nodes[0].heartbeats_seen if sender == 2)
        sim.run(until=1000.0)
        seen_after = sum(1 for sender, _ in nodes[0].heartbeats_seen if sender == 2)
        assert seen_before > 0
        assert seen_after == seen_before
        # Live peers kept emitting throughout.
        assert any(when > 900.0 for sender, when in nodes[0].heartbeats_seen
                   if sender == 1)

    def test_restarted_detector_recovers_full_cycle(self):
        """Crash -> suspicion -> restart -> heartbeats resume -> unsuspected."""
        sim, nodes = node_2_crashed_at_100_ms()
        sim.run(until=400.0)
        assert 2 in nodes[0].detector.suspected
        nodes[2].restart()
        nodes[2].detector.start()
        sim.run(until=800.0)
        assert 2 not in nodes[0].detector.suspected
        assert 2 not in nodes[1].detector.suspected
