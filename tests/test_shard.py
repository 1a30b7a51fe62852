"""Tests for the sharded keyspace layer (harness/shard.py).

The load-bearing guarantees: routing is process-stable and total (every key
lands on exactly one shard), shard-parallel runs are byte-identical to serial
ones, and a sharded run under zipfian skew on a WAN-scale topology decides
every submitted command with zero conflict-order violations per shard.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.cluster import ClusterConfig, build_cluster
from repro.harness.experiment import per_site_latency_summaries
from repro.harness.shard import (
    ScriptedWorkload,
    ShardedConfig,
    ShardRouter,
    generate_streams,
    route_streams,
    run_sharded,
)
from repro.metrics.collector import MetricsCollector
from repro.sim.topology import Topology, uniform_topology, with_replicas_per_site
from repro.workload.generator import WorkloadConfig, ZipfWorkloadConfig


class TestShardRouter:
    def test_routing_is_crc32_stable_across_processes(self):
        # Pinned expectations: CRC32 is process- and version-stable, so these
        # keys must route identically in every interpreter, forever.  (A
        # salted-hash router would shuffle shards every process restart and
        # silently break resharding-free replay.)
        router = ShardRouter(4)
        expected = {key: zlib.crc32(key.encode()) % 4
                    for key in ("zipf-0", "zipf-1", "shared-17", "private-3-2")}
        assert {key: router.shard_of(key) for key in expected} == expected
        assert router.shard_of("zipf-0") == 1  # literal pin, not derived

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert all(router.shard_of(f"k{i}") == 0 for i in range(50))

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    @given(key=st.text(min_size=1, max_size=40),
           shards=st.integers(min_value=1, max_value=64))
    def test_every_key_routes_to_exactly_one_shard(self, key, shards):
        router = ShardRouter(shards)
        owners = [shard for shard in range(shards)
                  if router.shard_of(key) == shard]
        assert len(owners) == 1
        assert 0 <= owners[0] < shards


class TestStreams:
    def test_scripted_workload_replays_in_order(self):
        config = ShardedConfig(clients=1, commands_per_client=5,
                               workload=WorkloadConfig(conflict_rate=0.5))
        (_, commands), = generate_streams(config)
        workload = ScriptedWorkload(commands)
        assert [workload.next_command() for _ in range(5)] == commands
        with pytest.raises(IndexError):
            workload.next_command()

    def test_streams_independent_of_shard_count(self):
        # A client's global stream must not depend on how many shards exist:
        # a 1-shard run and an 8-shard run submit exactly the same commands.
        one = generate_streams(ShardedConfig(shards=1, clients=4, commands_per_client=6))
        eight = generate_streams(ShardedConfig(shards=8, clients=4, commands_per_client=6))
        assert one == eight

    def test_route_streams_partitions_without_loss(self):
        config = ShardedConfig(clients=5, commands_per_client=8,
                               workload=ZipfWorkloadConfig(s=1.0, key_space=50))
        streams = generate_streams(config)
        per_shard = route_streams(streams, ShardRouter(4))
        all_ids = {cmd.command_id for _, cmds in streams for cmd in cmds}
        routed_ids = [cmd.command_id for shard in per_shard
                      for _, cmds in shard for cmd in cmds]
        assert len(routed_ids) == len(all_ids)  # no duplicates across shards
        assert set(routed_ids) == all_ids       # no losses
        router = ShardRouter(4)
        for index, shard in enumerate(per_shard):
            for _, cmds in shard:
                assert all(router.shard_of(cmd.key) == index for cmd in cmds)


def _small_config(**overrides) -> ShardedConfig:
    defaults = dict(protocol="caesar", shards=2, sites=5, replicas_per_site=1,
                    clients=4, commands_per_client=3,
                    workload=ZipfWorkloadConfig(s=0.8, key_space=40),
                    seed=7)
    defaults.update(overrides)
    return ShardedConfig(**defaults)


class TestShardedDeterminism:
    def test_parallel_byte_identical_to_serial(self):
        config = _small_config()
        serial = run_sharded(config, workers=1)
        parallel = run_sharded(config, workers=2)
        as_json = lambda result: json.dumps(result.as_dict(), sort_keys=True)  # noqa: E731
        assert as_json(serial) == as_json(parallel)
        # The decided sets themselves (not just counts) must match per shard.
        assert ([shard["decided_set_crc32"] for shard in serial.shards]
                == [shard["decided_set_crc32"] for shard in parallel.shards])

    def test_rerun_is_byte_identical(self):
        config = _small_config()
        first = run_sharded(config)
        second = run_sharded(config)
        assert json.dumps(first.as_dict(), sort_keys=True) == \
            json.dumps(second.as_dict(), sort_keys=True)


class TestShardedAcceptance:
    def test_wan_zipf_run_decides_everything(self):
        # The acceptance configuration: >= 4 shards, >= 20 WAN sites per
        # group, zipfian skew.  Every submitted command must decide on every
        # replica of its shard with zero conflict-order violations.
        config = _small_config(shards=4, sites=20, clients=6,
                               commands_per_client=4,
                               workload=ZipfWorkloadConfig(s=0.99, key_space=100))
        result = run_sharded(config)
        assert result.total_submitted == 24
        assert result.all_decided
        assert result.total_undecided == 0
        assert all(shard["violations"] == 0 for shard in result.shards)
        rates = result.per_shard_conflict_rates()
        assert sorted(rates) == list(range(4))
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())
        assert result.aggregate_throughput > 0
        assert result.bottleneck_makespan_ms > 0

    def test_replicas_per_site_scales_the_groups(self):
        config = _small_config(shards=2, sites=4, replicas_per_site=3,
                               clients=3, commands_per_client=2)
        result = run_sharded(config)
        assert all(shard["replicas"] == 12 for shard in result.shards)
        assert result.all_decided and result.total_violations == 0

    def test_a_shard_no_key_routes_to_runs_empty(self):
        # Every key of a four-key space routes to shard 1 by its CRC32, so
        # shard 0 gets no commands: it still runs and reports zero submitted.
        router = ShardRouter(2)
        assert {router.shard_of(f"zipf-{rank}") for rank in range(4)} == {1}
        config = _small_config(shards=2, clients=3, commands_per_client=2,
                               workload=ZipfWorkloadConfig(s=0.8, key_space=4))
        result = run_sharded(config)
        assert result.shards[0]["submitted"] == 0
        assert result.shards[1]["submitted"] == 6
        assert result.all_decided and result.total_violations == 0


class TestPerSiteAggregation:
    def test_multi_replica_sites_pool_their_samples(self):
        # Regression: the per-site summary used to keep only the last node's
        # numbers when several nodes share a site.
        topology = Topology(sites=["a", "b", "a"], rtt_ms={("a", "b"): 10.0})
        metrics = MetricsCollector()
        metrics.record_command(origin=0, proposer=0, latency_ms=10.0,
                               completed_at=1.0, key="k1")
        metrics.record_command(origin=2, proposer=2, latency_ms=30.0,
                               completed_at=2.0, key="k2")
        metrics.record_command(origin=1, proposer=1, latency_ms=50.0,
                               completed_at=3.0, key="k3")
        per_site = per_site_latency_summaries(topology, metrics)
        assert per_site["a"].count == 2
        assert per_site["a"].mean == pytest.approx(20.0)
        assert per_site["b"].count == 1

    def test_cluster_replicas_at_returns_all(self):
        topology = with_replicas_per_site(uniform_topology(3), 2)
        cluster = build_cluster(ClusterConfig(topology=topology))
        replicas = cluster.replicas_at("site0")
        assert [replica.node_id for replica in replicas] == [0, 3]
        with pytest.raises(ValueError):
            cluster.replica_at("site0")


class TestConflictAccounting:
    def test_per_key_counts_and_conflict_rate(self):
        metrics = MetricsCollector()
        for key in ("a", "b", "a", "c", "a"):
            metrics.record_command(origin=0, proposer=0, latency_ms=1.0,
                                   completed_at=1.0, key=key)
        assert metrics.per_key_counts() == {"a": 3, "b": 1, "c": 1}
        # 3 of 5 samples touched a contended key.
        assert metrics.conflict_rate() == pytest.approx(0.6)

    def test_conflict_rate_empty(self):
        assert MetricsCollector().conflict_rate() == 0.0
