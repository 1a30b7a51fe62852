"""Experiment runner: one protocol, one workload, one measurement window.

This is the single entry point every benchmark and example uses to run a
system: it builds the cluster, attaches the seeded client pool
(:func:`~repro.workload.clients.build_pool`, closed or open loop, at every
site), runs the simulation for the configured duration, and returns the
collected metrics together with protocol-internal statistics (fast/slow path
counts, wait times, per-phase breakdowns) and a consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.consensus.interface import DecisionKind
from repro.harness.cluster import Cluster, ClusterConfig, build_cluster
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import LatencySummary
from repro.sim.failures import ScheduledCrash
from repro.sim.network import NetworkConfig
from repro.sim.topology import Topology
from repro.workload.clients import ClientPool, build_pool
from repro.workload.generator import WorkloadConfig, check_load


@dataclass
class ExperimentConfig(ClusterConfig):
    """Description of one experiment run: a cluster (every
    :class:`~repro.harness.cluster.ClusterConfig` field), the clients that
    drive it and the window that measures them.

    Attributes:
        network: as in ``ClusterConfig``, but the default adds a few
            milliseconds of gaussian jitter, mirroring real WAN variability
            (without it, message arrival orders are unrealistically uniform
            across acceptors and dependency disagreements almost never occur).
        conflict_rate: fraction of commands drawn from the shared key pool.
        clients_per_site: number of clients co-located with each replica.
        open_loop: ``False`` = closed-loop clients (latency experiments),
            ``True`` = open-loop Poisson injection (throughput experiments).
        arrival_rate_per_client: per-client injection rate for open-loop runs
            (commands per second).
        duration_ms: measured virtual time (after warm-up).
        warmup_ms: virtual time during which samples are discarded.
        shared_pool_size: keys in the shared pool (paper: 100).
        drain_ms: extra virtual time after the measurement window to let
            outstanding commands finish.
        crash_at_ms: crash the last replica (Mumbai on the paper's sites) at
            this virtual time, as Figure 12 does; its clients then give up on
            a command after :data:`CRASH_RECONNECT_TIMEOUT_MS` and move to a
            live replica.  ``None`` crashes nothing.
    """

    network: NetworkConfig = field(default_factory=lambda: NetworkConfig(jitter_ms=3.0))
    conflict_rate: float = 0.0
    clients_per_site: int = 10
    open_loop: bool = False
    arrival_rate_per_client: float = 50.0
    duration_ms: float = 20000.0
    warmup_ms: float = 2000.0
    shared_pool_size: int = 100
    drain_ms: float = 2000.0
    crash_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        check_load(self.clients_per_site, self.conflict_rate, self.duration_ms,
                   self.warmup_ms, self.arrival_rate_per_client if self.open_loop else None)


@dataclass
class ExperimentResult:
    """Everything measured during one experiment run."""

    config: ExperimentConfig
    cluster: Cluster
    metrics: MetricsCollector
    pool: ClientPool
    per_site_latency: Dict[str, LatencySummary]
    overall_latency: Optional[LatencySummary]
    throughput_per_second: float
    fast_decisions: int
    slow_decisions: int
    consistency_violations: int

    @property
    def slow_path_ratio(self) -> Optional[float]:
        """Fraction of decided commands that took the slow path."""
        total = self.fast_decisions + self.slow_decisions
        if total == 0:
            return None
        return self.slow_decisions / total

    def site_mean_latency(self, site: str) -> Optional[float]:
        """Mean latency (ms) observed by clients at the named site."""
        summary = self.per_site_latency.get(site)
        return summary.mean if summary is not None else None


#: An experiment's cluster is built from its ``ClusterConfig`` fields; the
#: name stays because ``bench/worker.py`` calls it.
build_experiment_cluster = build_cluster

#: How long a closed-loop client waits on a command before it moves to a live
#: replica, in a run that crashes one (the paper's client re-connection).
CRASH_RECONNECT_TIMEOUT_MS = 2000.0


def attach_clients(cluster: Cluster, config: ExperimentConfig,
                   metrics: MetricsCollector) -> ClientPool:
    """Create the configured clients at every site of the cluster.

    Any replica of the cluster is a failover candidate; closed-loop clients
    only ever use one when the config schedules a crash.
    """
    return build_pool(
        [replica for replica in cluster.replicas for _ in range(config.clients_per_site)],
        WorkloadConfig(conflict_rate=config.conflict_rate,
                       shared_pool_size=config.shared_pool_size),
        cluster.sim, metrics,
        open_loop_rate=config.arrival_rate_per_client if config.open_loop else None,
        failover=cluster.replicas,
        reconnect_timeout_ms=None if config.crash_at_ms is None else CRASH_RECONNECT_TIMEOUT_MS)


def per_site_latency_summaries(topology: Topology,
                               metrics: MetricsCollector) -> Dict[str, LatencySummary]:
    """Latency summary per origin replica, keyed by the site hosting it."""
    return {topology.site_of(origin): summary
            for origin, summary in metrics.per_origin_summaries().items()}


def summarize_experiment(result: ExperimentResult) -> Dict[str, object]:
    """Reduce an :class:`ExperimentResult` to a small, picklable payload.

    This is the default *collector* of the sweep orchestrator
    (:mod:`repro.harness.sweep`): it runs inside the worker process and keeps
    only the aggregate numbers the figure drivers plot, so the cluster and
    its full execution history never cross the process boundary.
    """
    overall = result.overall_latency
    return {
        "throughput_per_second": result.throughput_per_second,
        "mean_latency_ms": overall.mean if overall is not None else None,
        "per_site_mean_latency_ms": {site: summary.mean
                                     for site, summary in result.per_site_latency.items()},
        "slow_path_ratio": result.slow_path_ratio,
    }


def count_decisions(replicas) -> Tuple[int, int]:
    """Completed decisions across ``replicas`` as ``(fast, slow)`` counts."""
    fast = slow = 0
    for replica in replicas:
        for decision in replica.completed_decisions():
            if decision.kind is DecisionKind.FAST:
                fast += 1
            elif decision.kind is not None:
                slow += 1
    return fast, slow


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment end to end and return its measurements."""
    cluster = build_cluster(config)
    metrics = MetricsCollector(warmup_ms=config.warmup_ms)
    pool = attach_clients(cluster, config, metrics)
    if config.crash_at_ms is not None:
        cluster.crash_injector.schedule(ScheduledCrash(node_id=cluster.size - 1,
                                                       crash_at_ms=config.crash_at_ms))
    cluster.start()
    pool.start_all()
    total_ms = config.warmup_ms + config.duration_ms
    cluster.run(total_ms)
    pool.stop_all()
    if config.drain_ms > 0:
        cluster.run(config.drain_ms)

    per_site = per_site_latency_summaries(cluster.topology, metrics)
    fast, slow = count_decisions(cluster.replicas)
    return ExperimentResult(
        config=config,
        cluster=cluster,
        metrics=metrics,
        pool=pool,
        per_site_latency=per_site,
        overall_latency=metrics.summary(),
        throughput_per_second=metrics.throughput(config.duration_ms),
        fast_decisions=fast,
        slow_decisions=slow,
        consistency_violations=len(cluster.check_consistency()),
    )
