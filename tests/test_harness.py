"""Tests for the experiment harness: cluster builder, experiment runner, reporting."""

from __future__ import annotations

from math import inf

import pytest

from repro.consensus.command import Command
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.harness.experiment import (
    ExperimentConfig,
    attach_clients,
    per_site_latency_summaries,
    run_experiment,
)
from repro.harness.protocols import PROTOCOLS
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import format_series, format_table
from repro.sim.simulator import total_events_executed
from repro.sim.topology import EC2_SITES, ec2_five_sites
from tests.conftest import EXECUTED_CHECK_EVERY, lan_topology, run_until_executed, uniform_topology


class TestClusterBuilder:
    def test_default_cluster_is_five_site_caesar(self):
        cluster = build_cluster(ClusterConfig())
        assert cluster.size == 5
        assert cluster.replicas[0].protocol_name == "caesar"
        assert cluster.topology.sites[0] == "virginia"

    def test_all_registered_protocols_buildable(self):
        for protocol in PROTOCOLS:
            cluster = build_cluster(ClusterConfig(protocol=protocol))
            assert cluster.size == 5
            assert cluster.replicas[0].protocol_name == protocol

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(ClusterConfig(protocol="raft"))

    def test_custom_topology_size(self):
        cluster = build_cluster(ClusterConfig(topology=uniform_topology(7, rtt_ms=30.0)))
        assert cluster.size == 7

    def test_replica_at_site_lookup(self):
        cluster = build_cluster(ClusterConfig())
        assert cluster.replica_at("mumbai").node_id == 4

    def test_replica_at_names_the_replica_at_the_sites_node_index(self):
        cluster = build_cluster(ClusterConfig())
        assert [cluster.replica_at(site).node_id for site in EC2_SITES] == [0, 1, 2, 3, 4]

    def test_replica_at_unknown_site_raises(self):
        with pytest.raises(ValueError):
            build_cluster(ClusterConfig()).replica_at("nowhere")

    def test_protocol_options_forwarded(self):
        cluster = build_cluster(ClusterConfig(protocol="multipaxos",
                                              protocol_options={"leader_id": 2}))
        assert cluster.replicas[0].leader_id == 2

    def test_check_consistency_empty_on_fresh_cluster(self):
        cluster = build_cluster(ClusterConfig())
        assert cluster.check_consistency() == []
        assert cluster.total_executed() == 0


class TestRunUntilExecuted:
    def test_no_commands_is_done_without_running_an_event(self):
        cluster = build_cluster(ClusterConfig(topology=lan_topology(3)))
        assert run_until_executed(cluster, []) is True
        assert cluster.sim.now == 0.0

    def test_overshoots_the_exact_stop_by_less_than_one_cadence(self):
        def events_to_execute(run) -> int:
            cluster = build_cluster(ClusterConfig(topology=lan_topology(3)))
            command = Command(command_id=(0, 0), key="k", value="v")
            cluster.replicas[0].submit(command, callback=lambda result: None)
            before = total_events_executed()
            assert run(cluster, [command.command_id]) is True
            assert cluster.all_executed([command.command_id])
            return total_events_executed() - before

        exact = events_to_execute(lambda cluster, ids: cluster.sim.run_until(
            lambda: cluster.all_executed(ids), check_every=1, deadline=inf))
        cadenced = events_to_execute(lambda cluster, ids: run_until_executed(cluster, ids))
        assert exact <= cadenced < exact + EXECUTED_CHECK_EVERY

    def test_an_unknown_command_times_out_at_the_deadline(self):
        cluster = build_cluster(ClusterConfig(topology=lan_topology(3)))
        cluster.start()
        assert run_until_executed(cluster, [(9, 9)], deadline_ms=50.0) is False
        assert cluster.sim.now <= 50.0
        assert not cluster.all_executed([(9, 9)])


class TestPerSiteLatency:
    def collector(self) -> MetricsCollector:
        metrics = MetricsCollector()
        for origin, latency in [(4, 30.0), (0, 10.0), (4, 50.0), (2, 20.0)]:
            metrics.record_command(origin=origin, proposer=origin, latency_ms=latency,
                                   completed_at=1000.0, key="k")
        return metrics

    def test_one_summary_per_origin_keyed_by_its_site(self):
        summaries = per_site_latency_summaries(ec2_five_sites(), self.collector())
        assert list(summaries) == ["virginia", "frankfurt", "mumbai"]

    def test_a_sites_summary_is_its_origins_summary(self):
        metrics = self.collector()
        summaries = per_site_latency_summaries(ec2_five_sites(), metrics)
        assert summaries["mumbai"] == metrics.summary(4)
        assert summaries["mumbai"].mean == 40.0
        assert summaries["virginia"].count == 1

    def test_no_samples_no_sites(self):
        assert per_site_latency_summaries(ec2_five_sites(), MetricsCollector()) == {}


class TestExperimentRunner:
    def run_small(self, protocol: str = "caesar", **overrides) -> object:
        config = ExperimentConfig(**dict(protocol=protocol, conflict_rate=0.1,
                                         clients_per_site=2, duration_ms=1500.0,
                                         warmup_ms=300.0, drain_ms=500.0, seed=5)
                                  | overrides)
        return run_experiment(config)

    def test_experiment_produces_samples_and_no_violations(self):
        result = self.run_small()
        assert result.metrics.count > 0
        assert result.consistency_violations == 0
        assert result.overall_latency is not None
        assert result.throughput_per_second > 0

    def test_per_site_latency_covers_all_sites(self):
        result = self.run_small()
        assert len(result.per_site_latency) == 5

    def test_slow_path_ratio_in_unit_interval(self):
        result = self.run_small()
        ratio = result.slow_path_ratio
        assert ratio is None or 0.0 <= ratio <= 1.0

    def test_open_loop_mode(self):
        result = self.run_small(open_loop=True, arrival_rate_per_client=40.0)
        assert result.metrics.count > 0

    def test_custom_workload_forwarded(self):
        result = self.run_small(conflict_rate=1.0, shared_pool_size=5)
        keys = {sample.key for sample in result.metrics.samples}
        assert all(key.startswith("shared-") for key in keys)

    def test_every_protocol_completes_an_experiment(self):
        for protocol in ["caesar", "epaxos", "multipaxos", "mencius", "m2paxos"]:
            result = self.run_small(protocol=protocol)
            assert result.metrics.count > 0, protocol
            assert result.consistency_violations == 0, protocol

    def test_attach_clients_counts(self):
        config = ExperimentConfig(clients_per_site=3, topology=lan_topology(3))
        cluster = build_cluster(config)
        metrics = MetricsCollector()
        pool = attach_clients(cluster, config, metrics)
        assert len(pool.clients) == 9

    def test_attach_clients_reconnect_timeout_reaches_every_client(self):
        """A config that schedules a crash (Figure 12, the failure example)
        gives every closed-loop client the reconnect timeout."""
        config = ExperimentConfig(clients_per_site=2, topology=lan_topology(3),
                                  crash_at_ms=1000.0)
        cluster = build_cluster(config)
        pool = attach_clients(cluster, config, MetricsCollector())
        assert [client.reconnect_timeout_ms for client in pool.clients] == [2000.0] * 6
        assert all(client.fallback_replicas == cluster.replicas for client in pool.clients)
        assert [client.replica.node_id for client in pool.clients] == [0, 0, 1, 1, 2, 2]

    def test_recovery_flag_propagates_to_caesar(self):
        for recovery in (True, False):
            config = ExperimentConfig(protocol="caesar", recovery=recovery,
                                      topology=lan_topology(5))
            cluster = build_cluster(config)
            cluster.start()
            assert all(replica.recovery_on is recovery for replica in cluster.replicas)
            assert all((replica.failure_detector is not None) is recovery
                       for replica in cluster.replicas)


class TestReporting:
    def test_format_table_alignment_and_none(self):
        table = format_table("Title", ["a", "bee"], [[1, None], [2.5, "x"]])
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[1] and "bee" in lines[1]
        assert "-" in lines[2]
        assert "2.5" in table and "x" in table

    def test_format_series_merges_x_values(self):
        series = {"caesar": {"0%": 1.0, "10%": 2.0}, "epaxos": {"10%": 3.0, "30%": 4.0}}
        table = format_series("S", series, x_label="conflict")
        assert "conflict" in table
        for x in ("0%", "10%", "30%"):
            assert x in table
        # Missing cells render as '-'.
        assert "-" in table
