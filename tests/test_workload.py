"""Unit tests for the workload generators and simulated clients."""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.quorums import QuorumSystem
from repro.core.caesar import CaesarReplica
from repro.core.config import CaesarConfig
from repro.harness.experiment import ExperimentConfig, attach_clients, build_experiment_cluster
from repro.kvstore.store import KeyValueStore
from repro.metrics.collector import MetricsCollector
from repro.net.clock import WallClock
from repro.sim.network import Network
from repro.sim.random import DeterministicRandom
from repro.sim.simulator import Simulator
from repro.sim.topology import lan_topology, uniform_topology
from repro.workload.clients import ClientPool, ClosedLoopClient, OpenLoopClient, build_pool
from repro.workload.generator import ConflictWorkload, WorkloadConfig


class TestWorkloadConfig:
    def test_invalid_conflict_rate_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(conflict_rate=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(conflict_rate=-0.1)

    def test_empty_pools_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(shared_pool_size=0)
        with pytest.raises(ValueError):
            WorkloadConfig(private_pool_size=0)


class TestConflictWorkload:
    def make(self, conflict_rate: float, client_id: int = 0, seed: int = 1):
        return ConflictWorkload(client_id=client_id, origin=0,
                                config=WorkloadConfig(conflict_rate=conflict_rate),
                                rng=DeterministicRandom(seed))

    def test_zero_conflict_rate_never_uses_shared_pool(self):
        workload = self.make(0.0)
        keys = {workload.next_command().key for _ in range(200)}
        assert all(key.startswith("private-0-") for key in keys)
        assert workload.observed_conflict_rate == 0.0

    def test_full_conflict_rate_always_uses_shared_pool(self):
        workload = self.make(1.0)
        keys = {workload.next_command().key for _ in range(200)}
        assert all(key.startswith("shared-") for key in keys)
        assert workload.observed_conflict_rate == 1.0

    def test_intermediate_rate_close_to_target(self):
        workload = self.make(0.3)
        for _ in range(2000):
            workload.next_command()
        assert workload.observed_conflict_rate == pytest.approx(0.3, abs=0.05)

    def test_command_ids_unique_and_sequential(self):
        workload = self.make(0.5, client_id=7)
        ids = [workload.next_command().command_id for _ in range(10)]
        assert ids == [(7, i) for i in range(10)]

    def test_private_pools_disjoint_across_clients(self):
        first = self.make(0.0, client_id=1)
        second = self.make(0.0, client_id=2)
        keys_first = {first.next_command().key for _ in range(100)}
        keys_second = {second.next_command().key for _ in range(100)}
        assert keys_first.isdisjoint(keys_second)

    def test_same_seed_same_commands(self):
        first = self.make(0.4, seed=9)
        second = self.make(0.4, seed=9)
        assert [first.next_command() for _ in range(20)] == \
               [second.next_command() for _ in range(20)]

    def test_observed_conflict_rate_is_zero_before_any_command(self):
        assert self.make(1.0).observed_conflict_rate == 0.0

    def test_commands_carry_origin_payload_and_a_value_only_on_puts(self):
        workload = ConflictWorkload(client_id=4, origin=2,
                                    config=WorkloadConfig(payload_size=99, write_fraction=0.5),
                                    rng=DeterministicRandom(6))
        commands = [workload.next_command() for _ in range(50)]
        assert {command.origin for command in commands} == {2}
        assert {command.payload_size for command in commands} == {99}
        assert {command.operation for command in commands} == {"put", "get"}
        for command in commands:
            sequence = command.command_id[1]
            expected = f"v4.{sequence}" if command.operation == "put" else None
            assert command.value == expected

    def test_keys_stay_within_the_configured_pools(self):
        config = WorkloadConfig(conflict_rate=0.5, shared_pool_size=3, private_pool_size=2)
        workload = ConflictWorkload(client_id=5, origin=0, config=config,
                                    rng=DeterministicRandom(2))
        keys = {workload.next_command().key for _ in range(400)}
        assert keys == {"shared-0", "shared-1", "shared-2", "private-5-0", "private-5-1"}

    def test_write_fraction_zero_generates_reads(self):
        workload = ConflictWorkload(client_id=0, origin=0,
                                    config=WorkloadConfig(write_fraction=0.0),
                                    rng=DeterministicRandom(1))
        assert all(workload.next_command().operation == "get" for _ in range(20))

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_generated_keys_always_from_known_pools(self, rate, seed):
        workload = ConflictWorkload(client_id=3, origin=0,
                                    config=WorkloadConfig(conflict_rate=rate),
                                    rng=DeterministicRandom(seed))
        for _ in range(50):
            command = workload.next_command()
            assert command.key.startswith("shared-") or command.key.startswith("private-3-")


def build_single_replica():
    """One-node CAESAR 'cluster' used to exercise clients cheaply."""
    sim = Simulator(seed=2)
    network = Network(sim, uniform_topology(3, rtt_ms=10.0))
    quorums = QuorumSystem.for_cluster(3)
    config = CaesarConfig(recovery_enabled=False)
    replicas = [CaesarReplica(i, sim, network, quorums, KeyValueStore(), config=config)
                for i in range(3)]
    return sim, replicas


class TestClosedLoopClient:
    def test_keeps_one_outstanding_command(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = ClosedLoopClient(0, replicas[0], workload, sim, metrics)
        client.start()
        sim.run(until=500.0)
        client.stop()
        sim.run(until=600.0)
        assert client.completed > 1
        # Closed loop: generated commands never exceed completed + 1 outstanding.
        assert workload.generated <= client.completed + 1

    def test_latency_samples_recorded(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 1, WorkloadConfig(), DeterministicRandom(1))
        client = ClosedLoopClient(0, replicas[1], workload, sim, metrics)
        client.start()
        sim.run(until=300.0)
        client.stop()
        sim.run(until=400.0)
        assert metrics.count == client.completed
        assert all(sample.latency_ms > 0 for sample in metrics.samples)
        assert all(sample.origin == 1 for sample in metrics.samples)

    def test_reconnects_to_fallback_after_crash(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = ClosedLoopClient(0, replicas[0], workload, sim, metrics,
                                  reconnect_timeout_ms=100.0,
                                  fallback_replicas=[replicas[1], replicas[2]])
        client.start()
        sim.run(until=200.0)
        replicas[0].crash()
        sim.run(until=2000.0)
        assert client.timeouts >= 1
        assert client.replica is replicas[1]
        assert client.completed > 0


class TestOpenLoopClient:
    def test_injects_at_configured_rate(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = OpenLoopClient(0, replicas[0], workload, sim, metrics,
                                rate_per_second=100.0, rng=DeterministicRandom(5))
        client.start()
        sim.run(until=2000.0)
        client.stop()
        # 100/s over 2 virtual seconds ~ 200 commands (Poisson, generous bounds).
        assert 120 <= client.submitted <= 300

    def test_stop_after_ms_bounds_injection(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = OpenLoopClient(0, replicas[0], workload, sim, metrics,
                                rate_per_second=100.0, rng=DeterministicRandom(5),
                                stop_after_ms=500.0)
        client.start()
        sim.run(until=3000.0)
        assert client.submitted <= 80

    def test_completions_tracked(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = OpenLoopClient(0, replicas[0], workload, sim, metrics,
                                rate_per_second=50.0, rng=DeterministicRandom(5))
        client.start()
        sim.run(until=1000.0)
        client.stop()
        sim.run(until=1500.0)
        assert client.completed > 0
        assert client.completed <= client.submitted

    def test_fails_over_when_target_replica_crashes(self):
        # Regression: open-loop clients used to keep injecting into a dead
        # replica forever, silently zeroing throughput for the rest of the
        # run instead of reconnecting like the closed-loop clients do.
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = OpenLoopClient(0, replicas[0], workload, sim, metrics,
                                rate_per_second=100.0, rng=DeterministicRandom(5),
                                fallback_replicas=[replicas[1], replicas[2]])
        client.start()
        sim.run(until=300.0)
        replicas[0].crash()
        completed_before_crash = client.completed
        sim.run(until=1500.0)
        client.stop()
        sim.run(until=2000.0)
        assert client.replica is replicas[1]
        assert client.retargets == 1
        assert client.completed > completed_before_crash

    def test_origin_rewritten_after_retarget(self):
        # Regression: after a failover the workload kept stamping commands
        # with the dead replica's id, so per-origin latency was attributed to
        # a node that never proposed them.
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        workload = ConflictWorkload(0, 0, WorkloadConfig(), DeterministicRandom(1))
        client = OpenLoopClient(0, replicas[0], workload, sim, metrics,
                                rate_per_second=100.0, rng=DeterministicRandom(5),
                                fallback_replicas=[replicas[1], replicas[2]])
        client.start()
        sim.run(until=300.0)
        replicas[0].crash()
        sim.run(until=1500.0)
        client.stop()
        sim.run(until=2000.0)
        # Anything completing well after the crash was proposed by the
        # fallback, and both the sample's origin and proposer must say so.
        late = [sample for sample in metrics.samples if sample.completed_at > 500.0]
        assert late
        assert all(sample.origin == 1 for sample in late)
        assert all(sample.proposer == 1 for sample in late)


class TestClientPool:
    def test_start_stop_all_and_totals(self):
        sim, replicas = build_single_replica()
        metrics = MetricsCollector()
        pool = ClientPool()
        for i in range(3):
            workload = ConflictWorkload(i, 0, WorkloadConfig(), DeterministicRandom(i))
            pool.add(ClosedLoopClient(i, replicas[0], workload, sim, metrics))
        pool.start_all()
        sim.run(until=300.0)
        pool.stop_all()
        sim.run(until=400.0)
        assert pool.total_completed == sum(c.completed for c in pool.clients)
        assert pool.total_completed > 0


class _StubTarget:
    """What ``build_pool`` needs of a TCP connection: an id to stamp as origin."""

    crashed = False

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


def _first_draws(pool: ClientPool, count: int = 20) -> list:
    """Per client: its first commands and, in open loop, inter-arrival draws."""
    draws = []
    for client in pool.clients:
        commands = [client.workload.next_command() for _ in range(count)]
        arrivals = ([client.rng.expovariate(0.05) for _ in range(count)]
                    if isinstance(client, OpenLoopClient) else None)
        draws.append(([(c.command_id, c.key, c.operation, c.value, c.origin)
                       for c in commands], arrivals))
    return draws


class TestBuildPool:
    """One seed is one workload, whichever substrate the pool is built on."""

    SEED = 11
    WORKLOAD = WorkloadConfig(conflict_rate=0.3, write_fraction=0.7)

    def _on_wall_clock(self, placement, **options) -> list:
        loop = asyncio.new_event_loop()
        try:
            clock = WallClock(seed=self.SEED, loop=loop)
            stubs = {node_id: _StubTarget(node_id) for node_id in set(placement)}
            return _first_draws(build_pool([stubs[node_id] for node_id in placement],
                                           self.WORKLOAD, clock, MetricsCollector(),
                                           **options))
        finally:
            loop.close()

    @pytest.mark.parametrize("open_loop", [False, True])
    def test_attach_clients_placement_draws_the_same_streams_on_both_substrates(self, open_loop):
        config = ExperimentConfig(clients_per_site=2, topology=lan_topology(3),
                                  seed=self.SEED, workload=self.WORKLOAD,
                                  open_loop=open_loop, arrival_rate_per_client=50.0)
        cluster = build_experiment_cluster(config)
        simulated = _first_draws(attach_clients(cluster, config, MetricsCollector()))
        over_tcp = self._on_wall_clock([0, 0, 1, 1, 2, 2],
                                       open_loop_rate=50.0 if open_loop else None)
        assert simulated == over_tcp
        assert (simulated[0][1] is not None) == open_loop
        # Streams are per client, not shared: no two clients draw the same keys.
        assert len({tuple(c[1] for c in commands) for commands, _ in simulated}) == 6

    @pytest.mark.parametrize("open_loop", [False, True])
    def test_round_robin_placement_draws_the_same_streams_on_both_substrates(self, open_loop):
        rate = 50.0 if open_loop else None
        cluster = build_experiment_cluster(
            ExperimentConfig(topology=lan_topology(3), seed=self.SEED))
        placement = [i % 3 for i in range(5)]
        simulated = _first_draws(build_pool([cluster.replicas[i] for i in placement],
                                            self.WORKLOAD, cluster.sim, MetricsCollector(),
                                            open_loop_rate=rate))
        assert simulated == self._on_wall_clock(placement, open_loop_rate=rate)

    def test_the_label_selects_the_streams(self):
        base = self._on_wall_clock([0, 1])
        assert self._on_wall_clock([0, 1]) == base
        assert self._on_wall_clock([0, 1], label="chaos-client") != base


class TestOneConstructionSite:
    """Clients are constructed in ``build_pool`` only."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def _calls(self):
        for path in sorted(self.SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    yield path.relative_to(self.SRC).as_posix(), node

    def test_client_constructors_are_called_only_in_the_clients_module(self):
        sites = sorted((path, call.func.id) for path, call in self._calls()
                       if isinstance(call.func, ast.Name)
                       and call.func.id in ("ClosedLoopClient", "OpenLoopClient"))
        assert sites == [("workload/clients.py", "ClosedLoopClient"),
                         ("workload/clients.py", "OpenLoopClient")]

    def test_client_streams_are_forked_in_one_place(self):
        forks = sorted((path, ast.unparse(call.args[0])) for path, call in self._calls()
                       if isinstance(call.func, ast.Attribute) and call.func.attr == "fork"
                       and call.args)
        assert [fork for fork in forks if "client" in fork[1] or "arrivals" in fork[1]] == [
            ("workload/clients.py", "'arrivals'"),
            ("workload/clients.py", "f'{label}-{client_id}'")]
