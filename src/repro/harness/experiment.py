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
from repro.harness.protocols import constructor_options, flags_to_fields
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import LatencySummary
from repro.runtime.batching import BatchingConfig
from repro.runtime.costs import CostModel, throughput_cost_model
from repro.sim.network import NetworkConfig
from repro.sim.topology import Topology
from repro.workload.clients import ClientPool, build_pool
from repro.workload.generator import WorkloadConfig


@dataclass
class ExperimentConfig:
    """Description of one experiment run.

    Attributes:
        protocol: a name in :data:`repro.harness.protocols.PROTOCOLS`.
        conflict_rate: fraction of commands drawn from the shared key pool.
        clients_per_site: number of clients co-located with each replica.
        open_loop: ``False`` = closed-loop clients (latency experiments),
            ``True`` = open-loop Poisson injection (throughput experiments).
        arrival_rate_per_client: per-client injection rate for open-loop runs
            (commands per second).
        duration_ms: measured virtual time (after warm-up).
        warmup_ms: virtual time during which samples are discarded.
        seed: simulation seed.
        topology: latency topology (defaults to the paper's 5 EC2 sites).
        network: network jitter configuration; the default adds a few
            milliseconds of gaussian jitter, mirroring real WAN variability
            (without it, message arrival orders are unrealistically uniform
            across acceptors and dependency disagreements almost never occur).
        cost_model: CPU cost model for replicas.
        batching: when set, replicas batch outgoing messages with this policy
            (the paper's "batching enabled" runs in Figure 9).
        recovery: whether failure detectors / recovery machinery run.
        admission: admission-control spec installed on every replica
            (``"none"``, ``"inflight:K"``, ``"deadline:MS"``; ``None`` = no
            hook).  The overload driver uses it to bound tail latency past
            the saturation knee.
        protocol_options: extra keyword arguments for the replica constructor.
        workload: key-pool configuration (defaults mirror the paper).
        drain_ms: extra virtual time after the measurement window to let
            outstanding commands finish.
    """

    protocol: str = "caesar"
    conflict_rate: float = 0.0
    clients_per_site: int = 10
    open_loop: bool = False
    arrival_rate_per_client: float = 50.0
    duration_ms: float = 20000.0
    warmup_ms: float = 2000.0
    seed: int = 1
    topology: Optional[Topology] = None
    network: NetworkConfig = field(default_factory=lambda: NetworkConfig(jitter_ms=3.0))
    cost_model: Optional[CostModel] = None
    batching: Optional[BatchingConfig] = None
    recovery: bool = False
    admission: Optional[str] = None
    history_gc_ms: Optional[float] = None
    protocol_options: Dict[str, object] = field(default_factory=dict)
    workload: Optional[WorkloadConfig] = None
    drain_ms: float = 2000.0

    @classmethod
    def from_args(cls, args, **overrides) -> "ExperimentConfig":
        """Build a config from CLI-style args; keyword ``overrides`` win.

        Understands the shared CLI vocabulary (``--protocol``, ``--seed``,
        ``--clients``, ``--conflicts`` as a 0-100 percentage, ``--duration``)
        plus ``--throughput`` / ``--batching`` / ``--recovery``; this is the
        single place those flags become an :class:`ExperimentConfig`.
        Warm-up defaults to a quarter of the duration, capped at 2 s, as the
        figure experiments use.
        """
        kwargs = flags_to_fields(args, "protocol", "seed", "recovery", "admission",
                                 clients="clients_per_site", history_gc="history_gc_ms")
        conflicts = getattr(args, "conflicts", None)
        if isinstance(conflicts, (int, float)):
            kwargs["conflict_rate"] = conflicts / 100.0
        duration = getattr(args, "duration", None)
        if duration is not None:
            kwargs["duration_ms"] = duration
            kwargs["warmup_ms"] = min(2000.0, duration / 4)
        if getattr(args, "throughput", False):
            kwargs["cost_model"] = throughput_cost_model()
        if getattr(args, "batching", False):
            kwargs["batching"] = BatchingConfig()
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    """Everything measured during one experiment run."""

    config: ExperimentConfig
    cluster: Cluster
    metrics: MetricsCollector
    measured_duration_ms: float
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


def build_experiment_cluster(config: ExperimentConfig) -> Cluster:
    """Build (but do not run) the cluster an experiment will use."""
    cluster_config = ClusterConfig(protocol=config.protocol, topology=config.topology,
                                   seed=config.seed, network=config.network,
                                   cost_model=config.cost_model, batching=config.batching,
                                   admission=config.admission,
                                   history_gc_ms=config.history_gc_ms,
                                   protocol_options=constructor_options(
                                       config.protocol, config.recovery,
                                       config.protocol_options))
    return build_cluster(cluster_config)


def attach_clients(cluster: Cluster, config: ExperimentConfig, metrics: MetricsCollector,
                   reconnect_timeout_ms: Optional[float] = None) -> ClientPool:
    """Create the configured clients at every site of the cluster.

    Any replica of the cluster is a failover candidate; closed-loop clients
    only ever use one when ``reconnect_timeout_ms`` is given (Figure 12).
    """
    return build_pool(
        [replica for replica in cluster.replicas for _ in range(config.clients_per_site)],
        config.workload or WorkloadConfig(conflict_rate=config.conflict_rate),
        cluster.sim, metrics,
        open_loop_rate=config.arrival_rate_per_client if config.open_loop else None,
        failover=cluster.replicas, reconnect_timeout_ms=reconnect_timeout_ms)


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
    admission = result.cluster.admission_snapshot()
    overall = result.overall_latency
    return {
        "throughput_per_second": result.throughput_per_second,
        "mean_latency_ms": overall.mean if overall is not None else None,
        "p50_latency_ms": overall.median if overall is not None else None,
        "p95_latency_ms": overall.p95 if overall is not None else None,
        "p99_latency_ms": overall.p99 if overall is not None else None,
        "p999_latency_ms": overall.p999 if overall is not None else None,
        "admission": admission.as_dict() if admission is not None else None,
        "sample_count": overall.count if overall is not None else 0,
        "per_site_mean_latency_ms": {site: summary.mean
                                     for site, summary in result.per_site_latency.items()},
        "fast_decisions": result.fast_decisions,
        "slow_decisions": result.slow_decisions,
        "slow_path_ratio": result.slow_path_ratio,
        "consistency_violations": result.consistency_violations,
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
    cluster = build_experiment_cluster(config)
    metrics = MetricsCollector(warmup_ms=config.warmup_ms)
    pool = attach_clients(cluster, config, metrics)
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
        measured_duration_ms=config.duration_ms,
        per_site_latency=per_site,
        overall_latency=metrics.summary(),
        throughput_per_second=metrics.throughput(config.duration_ms),
        fast_decisions=fast,
        slow_decisions=slow,
        consistency_violations=len(cluster.check_consistency()),
    )
