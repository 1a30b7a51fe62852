"""Saturation / overload study driver (``repro overload``).

Sweeps open-loop offered load from below to well past the saturation knee
and reports, per offered-load point, the submitted/completed/rejected
counts, the goodput (completed commands per second) and the p50/p99/p999
latency tail.  The same sweep runs on either substrate:

* ``sim`` — one hermetic simulator experiment per point, fanned out through
  the sweep orchestrator (:mod:`repro.harness.sweep`) with per-point seeds
  forked from the base seed, so the whole curve is deterministic and
  parallelizable;
* ``tcp`` — a fresh ``repro serve`` local cluster per point driven by the
  real ``repro loadgen`` engine over sockets.

An admission-control spec (:mod:`repro.runtime.admission`) can guard every
replica's submit path; the counting ``"none"`` policy is installed when no
spec is given, so submitted/rejected accounting works for baselines too.
This is the machinery behind the overload-to-SLO study: past the knee an
unprotected system's tail latency grows without bound (queueing), while
with admission control the p99 stays bounded at a small goodput cost.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.sweep import Workers, run_sweep, sweep_cell
from repro.metrics.report import format_table
from repro.metrics.stats import summarize_latencies
from repro.runtime.admission import aggregate_admission
from repro.runtime.costs import throughput_cost_model
from repro.sim.topology import ec2_five_sites
from repro.workload.generator import check_load

#: Goodput below this fraction of offered load marks a point as saturated
#: (the knee estimate is the first such point).
KNEE_GOODPUT_FRACTION = 0.9


@dataclass
class OverloadConfig:
    """Settings for one offered-load sweep.

    Attributes:
        protocol: protocol name.
        offered_loads: total offered load per point, in commands/second
            across the whole cluster; split evenly over the clients.  Kept
            in ascending order, which the knee and the heaviest point's tail
            read.
        substrate: ``"sim"`` (simulator) or ``"tcp"`` (real sockets).
        clients: open-loop clients, per site on the simulator and in total
            over TCP (spread round-robin over the replicas).
        replicas: TCP cluster size.
        conflict_rate: fraction of conflicting commands.
        duration_ms: measured injection window per point.
        warmup_ms: per-point warm-up during which samples are discarded.
        seed: base seed; per-point streams are forked from it.
        admission: admission-control spec (``"none"`` when omitted, so the
            per-replica submitted/rejected counters still run).
        workers: sweep worker processes for sim mode (1 = in-process).
    """

    protocol: str = "caesar"
    offered_loads: Sequence[float] = (200.0, 400.0, 800.0, 1600.0)
    substrate: str = "sim"
    clients: int = 4
    replicas: int = 3
    conflict_rate: float = 0.02
    duration_ms: float = 4000.0
    warmup_ms: float = 1000.0
    seed: int = 1
    admission: Optional[str] = None
    workers: Workers = 1
    #: CAESAR history collection on the simulator (TCP replicas always
    #: collect); long saturation runs accumulate history entries without it.
    history_gc: bool = False

    def __post_init__(self) -> None:
        self.offered_loads = tuple(sorted(self.offered_loads))
        check_load(self.clients, self.conflict_rate, self.duration_ms, self.warmup_ms,
                   min(self.offered_loads, default=None))


@dataclass(frozen=True)
class LoadPoint:
    """Measurements at one offered-load point."""

    offered_per_second: float
    submitted: int
    completed: int
    rejected: int
    goodput_per_second: float
    mean_latency_ms: Optional[float]
    p50_latency_ms: Optional[float]
    p99_latency_ms: Optional[float]
    p999_latency_ms: Optional[float]
    admission: Optional[Dict[str, object]] = None

    @property
    def saturated(self) -> bool:
        """Whether goodput fell below the knee fraction of offered load."""
        return self.goodput_per_second < KNEE_GOODPUT_FRACTION * self.offered_per_second

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the point."""
        return asdict(self)


@dataclass
class OverloadResult:
    """Outcome of one offered-load sweep."""

    config: OverloadConfig
    points: List[LoadPoint] = field(default_factory=list)

    @property
    def peak_goodput(self) -> float:
        """Highest goodput observed across the sweep."""
        return max((point.goodput_per_second for point in self.points), default=0.0)

    @property
    def knee_offered_per_second(self) -> Optional[float]:
        """First offered load whose goodput fell below the knee fraction.

        ``None`` when no point saturated (the sweep never reached the knee).
        """
        for point in self.points:
            if point.saturated:
                return point.offered_per_second
        return None

    def table(self) -> str:
        """Render the saturation curve as a fixed-width table."""
        title = (f"overload sweep — {self.config.protocol} on "
                 f"{self.config.substrate}, admission="
                 f"{self.config.admission or 'none'}")
        rows = [[point.offered_per_second, point.submitted, point.completed,
                 point.rejected, point.goodput_per_second, point.p50_latency_ms,
                 point.p99_latency_ms, point.p999_latency_ms,
                 "*" if point.saturated else ""]
                for point in self.points]
        table = format_table(title, ["offered/s", "submitted", "completed",
                                     "rejected", "goodput/s", "p50 ms", "p99 ms",
                                     "p999 ms", "sat"], rows)
        knee = self.knee_offered_per_second
        footer = (f"peak goodput {self.peak_goodput:.1f}/s; knee at "
                  + (f"{knee:.0f} offered/s" if knee is not None
                     else "none (never saturated)"))
        return table + "\n" + footer

    def summary_metrics(self) -> Dict[str, object]:
        """Headline numbers of the sweep: peak goodput, the knee and the
        heaviest point's tail (the ``summary`` of ``repro overload --json``)."""
        worst = self.points[-1] if self.points else None
        return {"peak_goodput": self.peak_goodput,
                "knee_offered_per_second": self.knee_offered_per_second,
                "points": len(self.points),
                "max_offered_per_second": (worst.offered_per_second
                                           if worst else None),
                "p99_latency_ms": worst.p99_latency_ms if worst else None,
                "p999_latency_ms": worst.p999_latency_ms if worst else None,
                "goodput_per_second": (worst.goodput_per_second
                                       if worst else None),
                "rejected": sum(point.rejected for point in self.points)}


def collect_overload_point(result: ExperimentResult) -> Dict[str, object]:
    """Reduce one sim experiment to :class:`LoadPoint`'s measured fields.

    Module-level so sweep workers can pickle it by reference.  Submitted /
    rejected counts come from the cluster's admission counters (the sweep
    always installs at least the counting ``"none"`` policy).

    Goodput and the latency tail are computed over completions inside the
    measurement window only.  The experiment's drain phase lets a saturated
    system's backlog finish, and counting those completions would credit an
    overloaded baseline with goodput it never sustained — the curve would
    never show a knee.
    """
    config = result.config
    window_end = config.warmup_ms + config.duration_ms
    in_window = [sample.latency_ms for sample in result.metrics.samples
                 if sample.completed_at <= window_end]
    summary = summarize_latencies(in_window) if in_window else None
    admission = result.cluster.admission_snapshot()
    admitted = admission["admitted"] if admission is not None else len(in_window)
    rejected = admission["rejected"] if admission is not None else 0
    return {"submitted": admitted + rejected,
            "completed": len(in_window),
            "rejected": rejected,
            "goodput_per_second": len(in_window) * 1000.0 / config.duration_ms,
            "mean_latency_ms": summary.mean if summary else None,
            "p50_latency_ms": summary.median if summary else None,
            "p99_latency_ms": summary.p99 if summary else None,
            "p999_latency_ms": summary.p999 if summary else None,
            "admission": admission}


def _sim_points(config: OverloadConfig) -> List[LoadPoint]:
    """Run the sweep on the simulator substrate (one cell per load point)."""
    # Without a CPU cost the simulator has no knee to sweep past.
    cost_model = throughput_cost_model()
    n_clients = ec2_five_sites().size * config.clients
    cells = []
    for offered in config.offered_loads:
        experiment = ExperimentConfig(
            protocol=config.protocol, conflict_rate=config.conflict_rate,
            clients_per_site=config.clients, open_loop=True,
            arrival_rate_per_client=offered / n_clients,
            duration_ms=config.duration_ms, warmup_ms=config.warmup_ms,
            admission=config.admission or "none", cost_model=cost_model,
            history_gc=config.history_gc)
        cells.append(sweep_cell(("overload", config.protocol,
                                 config.admission or "none", offered),
                                experiment, base_seed=config.seed,
                                collect=collect_overload_point))
    sweep = run_sweep(cells, workers=config.workers)
    points = []
    for offered, cell in zip(config.offered_loads, cells):
        payload = sweep.payload(cell.key)
        points.append(LoadPoint(offered_per_second=offered, **payload))
    return points


def _tcp_points(config: OverloadConfig) -> List[LoadPoint]:
    """Run the sweep over real sockets (one loadgen run per load point).

    Every point launches (and tears down) a fresh local cluster, so points
    stay independent.
    """
    from repro.net.client import LoadgenConfig, run_loadgen
    from repro.net.cluster import ServeConfig, serve_cluster

    points = []
    for index, offered in enumerate(config.offered_loads):
        cluster = serve_cluster(ServeConfig(
            protocol=config.protocol, replicas=config.replicas,
            seed=config.seed, admission=config.admission or "none"))
        try:
            report = run_loadgen(LoadgenConfig(
                endpoints=cluster.peers, clients=config.clients, open_loop=True,
                rate_per_client=offered / max(1, config.clients),
                duration_ms=config.duration_ms, warmup_ms=config.warmup_ms,
                conflict_rate=config.conflict_rate, seed=config.seed + index))
        finally:
            cluster.stop()
        points.append(LoadPoint(offered_per_second=offered,
                                submitted=report.submitted,
                                completed=report.completed,
                                rejected=report.rejected,
                                goodput_per_second=report.throughput_per_second,
                                mean_latency_ms=report.mean_latency_ms,
                                p50_latency_ms=report.p50_latency_ms,
                                p99_latency_ms=report.p99_latency_ms,
                                p999_latency_ms=report.p999_latency_ms,
                                admission=aggregate_admission(
                                    stats.get("admission")
                                    for stats in report.per_replica.values())))
    return points


def run_overload_sweep(config: OverloadConfig) -> OverloadResult:
    """Run the configured offered-load sweep end to end."""
    if config.substrate == "sim":
        points = _sim_points(config)
    elif config.substrate == "tcp":
        points = _tcp_points(config)
    else:
        raise ValueError(f"unknown substrate {config.substrate!r}; "
                         "expected 'sim' or 'tcp'")
    return OverloadResult(config=config, points=points)

