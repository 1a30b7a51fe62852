"""Per-figure experiment drivers and the one table that names them.

Each ``figure*`` function reproduces one figure of the paper's evaluation
(Section VI) and returns a :class:`FigureResult` containing the raw series
and a formatted text table.  A driver's defaults *are* the figure: called
with no arguments it produces the table and BENCH record committed under
``benchmarks/results/`` byte for byte.  :data:`FIGURES` maps the CLI's
figure keys to the drivers and holds each one's scaled-down ``--quick``
parameters, so a figure is parameterised in this module and nowhere else.

The drivers intentionally report *shape* rather than absolute numbers: the
simulated substrate reproduces message delays, quorum sizes and CPU queuing,
not the authors' JVM/Go runtimes, so who-wins and where-crossovers-fall are
the comparable quantities.

Every driver runs its parameter grid through the sweep orchestrator
(:mod:`repro.harness.sweep`): each cell draws from an RNG stream forked from
the figure's base seed keyed on the cell coordinates, so cells are hermetic
and the grid can fan out across worker processes (``workers=``) with output
byte-identical to a one-worker run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.core.config import CaesarConfig
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    attach_clients,
    build_experiment_cluster,
)
from repro.harness.sweep import Workers, run_sweep, sweep_cell
from repro.metrics.collector import MetricsCollector
from repro.metrics.perf import PerfRecord, write_record
from repro.metrics.report import format_series
from repro.runtime.batching import BatchingConfig
from repro.runtime.costs import CostModel
from repro.sim.failures import ScheduledCrash
from repro.sim.topology import EC2_SHORT_LABELS, EC2_SITES

#: Conflict percentages used across the paper's x-axes.
PAPER_CONFLICT_RATES = (0.0, 0.02, 0.10, 0.30, 0.50, 1.00)

#: The same axis without total order (100%), where the throughput-bound and
#: slow-path figures stop.
CONFLICT_RATES_TO_50 = PAPER_CONFLICT_RATES[:-1]

#: Protocols whose ordering logic never inspects command keys: the paper
#: reports them under every conflict rate with one configuration, so their
#: sweep runs a single cell and broadcasts it across the x-axis.
CONFLICT_OBLIVIOUS_PROTOCOLS = frozenset({"multipaxos", "mencius"})


def throughput_cost_model() -> CostModel:
    """CPU cost model used for throughput-bound experiments.

    Its callers are Figures 8, 9 and 9b, ``repro overload`` and ``repro run
    --throughput``; Figure 10 runs on the default model.

    The absolute costs are scaled up relative to real hardware so the
    simulated systems saturate at a few hundred commands per second, which
    keeps simulation time reasonable while preserving the protocols' relative
    CPU profiles (EPaxos' dependency-graph analysis vs. CAESAR's predecessor
    bookkeeping vs. the single-leader bottleneck of Multi-Paxos).  Absolute
    throughputs are therefore roughly three orders of magnitude below the
    paper's hardware numbers; EXPERIMENTS.md compares shapes, not magnitudes.
    """
    return CostModel(default_cost_ms=0.5, per_dependency_ms=0.03, client_request_ms=0.2)


@dataclass
class FigureResult:
    """Output of one figure driver."""

    figure: str
    description: str
    series: Dict[str, Dict[object, Optional[float]]]
    table: str
    extra: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.table

    def record(self) -> PerfRecord:
        """The figure's BENCH record: its sweep's event count plus the series
        with JSON-safe (string) x keys, named by the figure's stem."""
        record = self.extra["sweep"].perf_record(FIGURES[self.figure].stem)
        record.series = {label: {str(x): y for x, y in points.items()}
                         for label, points in self.series.items()}
        return record

    def write(self, results_dir: Path) -> Path:
        """Write ``<stem>.txt`` and ``BENCH_<stem>.json`` under ``results_dir``."""
        return write_record(self.record(), self.table, results_dir)


def _conflict_label(rate: float) -> str:
    return f"{int(round(rate * 100))}%"


def _get(payload: Optional[dict], name: str) -> Optional[float]:
    """Field of a cell payload, ``None``-safe for filtered-out cells."""
    return payload.get(name) if payload is not None else None


def _site_mean(payload: Optional[dict], site: str) -> Optional[float]:
    if payload is None:
        return None
    return payload["per_site_mean_latency_ms"].get(site)


# --------------------------------------------------------------------------
# Figure 6: average latency per site vs conflict rate (CAESAR/EPaxos/M2Paxos)
# --------------------------------------------------------------------------

def figure6_latency_vs_conflicts(conflict_rates: Sequence[float] = PAPER_CONFLICT_RATES,
                                 protocols: Sequence[str] = ("caesar", "epaxos", "m2paxos"),
                                 clients_per_site: int = 10, duration_ms: float = 5000.0,
                                 warmup_ms: float = 1500.0, seed: int = 11,
                                 workers: Workers = 1,
                                 cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 6: per-site average latency while varying the conflict percentage."""
    cells = [sweep_cell(
        ("fig6", protocol, rate),
        ExperimentConfig(protocol=protocol, conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms),
        base_seed=seed)
        for protocol in protocols for rate in conflict_rates]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    series: Dict[str, Dict[object, Optional[float]]] = {}
    per_site: Dict[str, Dict[str, Dict[object, Optional[float]]]] = {
        site: {} for site in EC2_SITES}
    for protocol in protocols:
        series[protocol] = {}
        for site in EC2_SITES:
            per_site[site][protocol] = {}
        for rate in conflict_rates:
            payload = sweep.payload(("fig6", protocol, rate))
            label = _conflict_label(rate)
            series[protocol][label] = _get(payload, "mean_latency_ms")
            for site in EC2_SITES:
                per_site[site][protocol][label] = _site_mean(payload, site)
    tables = [format_series("Figure 6 — mean latency (ms), all sites", series, "conflict")]
    for site in EC2_SITES:
        tables.append(format_series(
            f"Figure 6 — mean latency (ms), {EC2_SHORT_LABELS[site]}", per_site[site],
            "conflict"))
    return FigureResult(figure="6", description="Average latency vs conflict percentage",
                        series=series, table="\n\n".join(tables),
                        extra={"per_site": per_site, "sweep": sweep})


# --------------------------------------------------------------------------
# Figure 7: Multi-Paxos (near/far leader), Mencius, CAESAR per-site latency
# --------------------------------------------------------------------------

def figure7_single_leader_comparison(clients_per_site: int = 10, duration_ms: float = 5000.0,
                                     warmup_ms: float = 1500.0, seed: int = 12,
                                     workers: Workers = 1,
                                     cell_filter: Optional[Sequence[str]] = None
                                     ) -> FigureResult:
    """Figure 7: latency of Multi-Paxos (leader in Ireland vs Mumbai), Mencius, CAESAR 0%."""
    ireland = EC2_SITES.index("ireland")
    mumbai = EC2_SITES.index("mumbai")
    base = dict(conflict_rate=0.0, clients_per_site=clients_per_site,
                duration_ms=duration_ms, warmup_ms=warmup_ms)
    systems = {
        "multipaxos-IR": ExperimentConfig(protocol="multipaxos",
                                          protocol_options={"leader_id": ireland}, **base),
        "multipaxos-IN": ExperimentConfig(protocol="multipaxos",
                                          protocol_options={"leader_id": mumbai}, **base),
        "mencius": ExperimentConfig(protocol="mencius", **base),
        "caesar-0%": ExperimentConfig(protocol="caesar", **base),
    }
    cells = [sweep_cell(("fig7", name), config, base_seed=seed)
             for name, config in systems.items()]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    series: Dict[str, Dict[object, Optional[float]]] = {}
    for name in systems:
        payload = sweep.payload(("fig7", name))
        series[name] = {EC2_SHORT_LABELS[site]: _site_mean(payload, site)
                        for site in EC2_SITES}
    table = format_series("Figure 7 — mean latency (ms) per site", series, "site")
    return FigureResult(figure="7", description="Single-leader and all-node protocols vs CAESAR",
                        series=series, table=table, extra={"sweep": sweep})


# --------------------------------------------------------------------------
# Figure 8: latency per site vs number of connected clients (10% conflicts)
# --------------------------------------------------------------------------

def figure8_client_scaling(client_counts: Sequence[int] = (5, 50, 250, 500),
                           protocols: Sequence[str] = ("caesar", "epaxos", "m2paxos"),
                           duration_ms: float = 4000.0, warmup_ms: float = 1500.0,
                           seed: int = 13, workers: Workers = 1,
                           cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 8: latency as the number of connected closed-loop clients grows."""
    cost_model = throughput_cost_model()
    cells = [sweep_cell(
        ("fig8", protocol, total_clients),
        ExperimentConfig(protocol=protocol, conflict_rate=0.10,
                         clients_per_site=max(1, total_clients // len(EC2_SITES)),
                         duration_ms=duration_ms, warmup_ms=warmup_ms,
                         cost_model=cost_model),
        base_seed=seed)
        for protocol in protocols for total_clients in client_counts]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    series: Dict[str, Dict[object, Optional[float]]] = {}
    per_site: Dict[str, Dict[str, Dict[object, Optional[float]]]] = {
        site: {} for site in EC2_SITES}
    for protocol in protocols:
        series[protocol] = {}
        for site in EC2_SITES:
            per_site[site][protocol] = {}
        for total_clients in client_counts:
            payload = sweep.payload(("fig8", protocol, total_clients))
            series[protocol][total_clients] = _get(payload, "mean_latency_ms")
            for site in EC2_SITES:
                per_site[site][protocol][total_clients] = _site_mean(payload, site)
    table = format_series("Figure 8 — mean latency (ms) vs connected clients (10% conflicts)",
                          series, "clients")
    return FigureResult(figure="8", description="Latency vs number of connected clients",
                        series=series, table=table,
                        extra={"per_site": per_site, "sweep": sweep})


# --------------------------------------------------------------------------
# Figure 9: throughput vs conflict rate for all protocols
# --------------------------------------------------------------------------

def figure9_throughput(conflict_rates: Sequence[float] = CONFLICT_RATES_TO_50,
                       protocols: Sequence[str] = ("caesar", "epaxos", "m2paxos",
                                                   "multipaxos", "mencius"),
                       clients_per_site: int = 60, duration_ms: float = 4000.0,
                       warmup_ms: float = 1500.0, seed: int = 14,
                       batching: Optional[BatchingConfig] = None,
                       workers: Workers = 1,
                       cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 9 (no batching): peak throughput while varying the conflict rate.

    The paper drives the systems to saturation with open-loop clients.  This
    driver reaches saturation with a large closed-loop client population
    instead (``clients_per_site`` clients per site, each with one
    outstanding command): the offered load then always exceeds the CPU
    capacity defined by :func:`throughput_cost_model`, so the measured
    completion rate is the system's peak throughput, while the simulation's
    event count stays bounded.  (``repro overload`` is the open-loop study.)

    Multi-Paxos and Mencius never inspect command keys, so — as in the paper
    — each runs a single cell whose result is reported under every conflict
    rate, instead of re-running an identical experiment per rate.
    """
    cost_model = throughput_cost_model()

    def config_for(protocol: str, rate: float) -> ExperimentConfig:
        return ExperimentConfig(
            protocol=protocol, conflict_rate=rate, clients_per_site=clients_per_site,
            duration_ms=duration_ms, warmup_ms=warmup_ms,
            cost_model=cost_model, batching=batching)

    cells = []
    for protocol in protocols:
        if protocol in CONFLICT_OBLIVIOUS_PROTOCOLS:
            cells.append(sweep_cell(("fig9", protocol), config_for(protocol, 0.0),
                                    base_seed=seed))
        else:
            cells.extend(sweep_cell(("fig9", protocol, rate), config_for(protocol, rate),
                                    base_seed=seed)
                         for rate in conflict_rates)
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    series: Dict[str, Dict[object, Optional[float]]] = {}
    slow_ratios: Dict[str, Dict[object, Optional[float]]] = {}
    for protocol in protocols:
        series[protocol] = {}
        slow_ratios[protocol] = {}
        for rate in conflict_rates:
            if protocol in CONFLICT_OBLIVIOUS_PROTOCOLS:
                payload = sweep.payload(("fig9", protocol))
            else:
                payload = sweep.payload(("fig9", protocol, rate))
            label = _conflict_label(rate)
            series[protocol][label] = _get(payload, "throughput_per_second")
            slow_ratios[protocol][label] = _get(payload, "slow_path_ratio")
    suffix = "batching enabled" if batching is not None else "batching disabled"
    table = format_series(
        f"Figure 9 — throughput (commands/second) vs conflict percentage, {suffix}",
        series, "conflict")
    return FigureResult(figure="9", description=f"Throughput vs conflict percentage ({suffix})",
                        series=series, table=table,
                        extra={"slow_ratios": slow_ratios, "sweep": sweep})


def figure9_throughput_batching(conflict_rates: Sequence[float] = (0.0, 0.10, 0.30),
                                protocols: Sequence[str] = ("caesar", "epaxos", "multipaxos"),
                                clients_per_site: int = 60, duration_ms: float = 4000.0,
                                warmup_ms: float = 1500.0, seed: int = 14,
                                workers: Workers = 1,
                                cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 9 (bottom): the batching-enabled sweep next to the baseline.

    Runs the Figure 9 grid twice — batching off, then on (Mencius is omitted,
    as in the paper, because the authors' Mencius implementation does not
    support batching) — and reports both as one figure with series prefixed
    ``no-batching``/``batching``.
    """
    batching = BatchingConfig(window_ms=2.0, max_messages=32, marginal_cost_factor=0.25)
    shared = dict(conflict_rates=conflict_rates, protocols=protocols,
                  clients_per_site=clients_per_site, duration_ms=duration_ms,
                  warmup_ms=warmup_ms, seed=seed, workers=workers, cell_filter=cell_filter)
    without = figure9_throughput(**shared)
    with_batching = figure9_throughput(batching=batching, **shared)
    series = {
        **{f"no-batching {p}": points for p, points in without.series.items()},
        **{f"batching {p}": points for p, points in with_batching.series.items()},
    }
    return FigureResult(figure="9b",
                        description="Throughput vs conflict percentage, batching on vs off",
                        series=series,
                        table=without.table + "\n\n" + with_batching.table,
                        extra={"without": without, "with_batching": with_batching,
                               "sweep": without.extra["sweep"] + with_batching.extra["sweep"]})


# --------------------------------------------------------------------------
# Figure 10: % of slow-path decisions vs conflict rate (CAESAR vs EPaxos)
# --------------------------------------------------------------------------

def figure10_slow_paths(conflict_rates: Sequence[float] = CONFLICT_RATES_TO_50,
                        clients_per_site: int = 25, duration_ms: float = 4000.0,
                        warmup_ms: float = 1000.0, seed: int = 15,
                        workers: Workers = 1,
                        cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 10: fraction of commands decided via the slow path.

    The run uses a high closed-loop client count so that conflicting commands
    genuinely overlap in flight, which is what drives the difference between
    CAESAR's wait-based fast path and EPaxos' equal-dependency fast path.
    """
    protocols = ("epaxos", "caesar")
    cells = [sweep_cell(
        ("fig10", protocol, rate),
        ExperimentConfig(protocol=protocol, conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms),
        base_seed=seed)
        for protocol in protocols for rate in conflict_rates]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    series: Dict[str, Dict[object, Optional[float]]] = {}
    for protocol in protocols:
        series[protocol] = {}
        for rate in conflict_rates:
            ratio = _get(sweep.payload(("fig10", protocol, rate)), "slow_path_ratio")
            series[protocol][_conflict_label(rate)] = (ratio * 100.0) if ratio is not None else None
    table = format_series("Figure 10 — % of commands decided on the slow path", series,
                          "conflict")
    return FigureResult(figure="10", description="Slow-path percentage vs conflict percentage",
                        series=series, table=table, extra={"sweep": sweep})


# --------------------------------------------------------------------------
# Figure 11: CAESAR latency breakdown and wait-condition time
# --------------------------------------------------------------------------

def _collect_caesar_breakdown(result: ExperimentResult) -> Dict[str, object]:
    """Per-cell collector for Figure 11 (runs inside the sweep worker)."""
    totals = {"propose": 0.0, "retry": 0.0, "deliver": 0.0}
    for replica in result.cluster.replicas:
        for decision in replica.completed_decisions():
            for phase in totals:
                totals[phase] += decision.phase_times.get(phase, 0.0)
    wait_ms = {EC2_SHORT_LABELS[EC2_SITES[replica.node_id]]: replica.average_wait_ms()
               for replica in result.cluster.replicas}
    return {"phase_totals": totals, "wait_ms_by_site": wait_ms}


def figure11_breakdown(conflict_rates: Sequence[float] = CONFLICT_RATES_TO_50,
                       clients_per_site: int = 10, duration_ms: float = 5000.0,
                       warmup_ms: float = 1500.0, seed: int = 16,
                       workers: Workers = 1,
                       cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 11: (a) proportion of latency per ordering phase, (b) wait time per site."""
    cells = [sweep_cell(
        ("fig11", rate),
        ExperimentConfig(protocol="caesar", conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms),
        base_seed=seed, collect=_collect_caesar_breakdown)
        for rate in conflict_rates]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    phase_series: Dict[str, Dict[object, Optional[float]]] = {
        "propose": {}, "retry": {}, "deliver": {}}
    wait_series: Dict[str, Dict[object, Optional[float]]] = {
        EC2_SHORT_LABELS[site]: {} for site in EC2_SITES}
    for rate in conflict_rates:
        payload = sweep.payload(("fig11", rate))
        label = _conflict_label(rate)
        if payload is None:
            continue
        totals = payload["phase_totals"]
        grand_total = sum(totals.values()) or 1.0
        for phase in totals:
            phase_series[phase][label] = totals[phase] / grand_total
        for site_label, wait in payload["wait_ms_by_site"].items():
            wait_series[site_label][label] = wait
    table_a = format_series("Figure 11a — proportion of latency per CAESAR phase",
                            phase_series, "conflict")
    table_b = format_series("Figure 11b — mean wait-condition time (ms) per site",
                            wait_series, "conflict")
    return FigureResult(figure="11", description="CAESAR latency breakdown and wait times",
                        series=phase_series, table=table_a + "\n\n" + table_b,
                        extra={"wait_times": wait_series, "sweep": sweep})


# --------------------------------------------------------------------------
# Figure 12: throughput timeline when one node crashes
# --------------------------------------------------------------------------

def _run_crash_timeline(config: ExperimentConfig, crash_at_ms: float,
                        bucket_ms: float) -> Dict[str, object]:
    """Sweep runner for Figure 12: one run with a mid-experiment crash.

    Clients of the crashed replica time out and reconnect to the remaining
    replicas, and the protocols' recovery machinery finalizes the commands
    the crashed leader left behind.  Returns the bucketed throughput
    timeline directly (the cluster never leaves the worker process).
    """
    total_ms = config.duration_ms
    cluster = build_experiment_cluster(config)
    metrics = MetricsCollector(warmup_ms=0.0)
    # A reconnect timeout makes the crash behave like the paper's client
    # re-connection.
    pool = attach_clients(cluster, config, metrics, reconnect_timeout_ms=2000.0)
    crashed_node = cluster.size - 1
    cluster.crash_injector.schedule(ScheduledCrash(node_id=crashed_node,
                                                   crash_at_ms=crash_at_ms))
    cluster.start()
    pool.start_all()
    cluster.run(total_ms)
    pool.stop_all()
    cluster.run(1000.0)
    # ``total_ms`` is a whole number of buckets, so every reported bucket
    # spans a full second (the timeline scales a partial tail by its width).
    timeline = metrics.timeline(bucket_ms=bucket_ms, start_ms=0.0, end_ms=total_ms)
    return {"timeline": timeline}


def figure12_failure_timeline(protocols: Sequence[str] = ("caesar", "epaxos"),
                              clients_per_site: int = 20, crash_at_ms: float = 8000.0,
                              total_ms: float = 20000.0, bucket_ms: float = 1000.0,
                              seed: int = 17, workers: Workers = 1,
                              cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 12: cluster throughput over time with one replica crashing mid-run."""
    cells = [sweep_cell(
        ("fig12", protocol),
        ExperimentConfig(protocol=protocol, conflict_rate=0.02,
                         clients_per_site=clients_per_site, duration_ms=total_ms,
                         warmup_ms=0.0, recovery=True),
        base_seed=seed, runner=_run_crash_timeline, collect=None,
        options={"crash_at_ms": crash_at_ms, "bucket_ms": bucket_ms})
        for protocol in protocols]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    series: Dict[str, Dict[object, Optional[float]]] = {}
    for protocol in protocols:
        payload = sweep.payload(("fig12", protocol))
        if payload is None:
            continue
        series[protocol] = {f"{int(t / 1000)}s": tput for t, tput in payload["timeline"]}
    table = format_series("Figure 12 — throughput (commands/second) over time, crash at "
                          f"t={int(crash_at_ms / 1000)}s", series, "time")
    return FigureResult(figure="12", description="Throughput under a replica crash",
                        series=series, table=table, extra={"sweep": sweep})


# --------------------------------------------------------------------------
# Ablation: CAESAR with and without the wait condition
# --------------------------------------------------------------------------

def ablation_wait_condition(conflict_rates: Sequence[float] = (0.10, 0.30, 0.50),
                            clients_per_site: int = 20, duration_ms: float = 4000.0,
                            warmup_ms: float = 1000.0, seed: int = 19,
                            workers: Workers = 1,
                            cell_filter: Optional[Sequence[str]] = None) -> FigureResult:
    """Ablation of the paper's key mechanism (Section IV-A): the wait condition.

    Without it, an acceptor that received a conflicting higher-timestamp
    command first must reject the proposal, which turns fast decisions into
    slow ones exactly the way EPaxos' equal-dependency rule does.  This
    driver runs CAESAR with the wait condition on and off and reports the
    effect on the slow-path share and on latency.
    """
    variants = ((True, "wait-on"), (False, "wait-off"))
    cells = [sweep_cell(
        ("ablation", label, rate),
        ExperimentConfig(protocol="caesar", conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms,
                         protocol_options={"config": CaesarConfig(
                             recovery_enabled=False, wait_condition_enabled=enabled)}),
        base_seed=seed)
        for enabled, label in variants for rate in conflict_rates]
    sweep = run_sweep(cells, workers=workers, cell_filter=cell_filter)

    slow_series: Dict[str, Dict[object, Optional[float]]] = {}
    latency_series: Dict[str, Dict[object, Optional[float]]] = {}
    violations = 0
    for _, label in variants:
        slow_series[label] = {}
        latency_series[label] = {}
        for rate in conflict_rates:
            payload = sweep.payload(("ablation", label, rate))
            key = f"{int(rate * 100)}%"
            ratio = _get(payload, "slow_path_ratio")
            slow_series[label][key] = (ratio or 0.0) * 100.0 if payload is not None else None
            latency_series[label][key] = _get(payload, "mean_latency_ms")
            violations += _get(payload, "consistency_violations") or 0
    table = (format_series("Ablation — % slow decisions, wait condition on vs off",
                           slow_series, "conflict")
             + "\n\n"
             + format_series("Ablation — mean latency (ms), wait condition on vs off",
                             latency_series, "conflict"))
    series = {
        **{f"slow% {label}": points for label, points in slow_series.items()},
        **{f"latency {label}": points for label, points in latency_series.items()},
    }
    return FigureResult(figure="ablation",
                        description="CAESAR wait condition on vs off",
                        series=series, table=table,
                        extra={"slow": slow_series, "latency": latency_series,
                               "consistency_violations": violations, "sweep": sweep})


# --------------------------------------------------------------------------
# The figure table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One regenerable figure: its driver and its ``--quick`` parameters."""

    driver: Callable[..., FigureResult]
    #: Scaled-down keyword overrides so the figure finishes fast (coarser
    #: numbers, never written over a committed record).
    quick: Mapping[str, object]

    @property
    def stem(self) -> str:
        """File stem of the figure's table (``<stem>.txt``) and record
        (``BENCH_<stem>.json``)."""
        return self.driver.__name__


#: ``repro figure <key>`` -> figure, in presentation order.  Each key is also
#: the ``figure`` field of the :class:`FigureResult` its driver returns.
FIGURES: Dict[str, Figure] = {
    "6": Figure(figure6_latency_vs_conflicts,
                dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=5, duration_ms=4000.0,
                     warmup_ms=1000.0)),
    "7": Figure(figure7_single_leader_comparison,
                dict(clients_per_site=5, duration_ms=4000.0, warmup_ms=1000.0)),
    "8": Figure(figure8_client_scaling,
                dict(client_counts=(5, 50, 250), duration_ms=3000.0, warmup_ms=1000.0)),
    "9": Figure(figure9_throughput,
                dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=40, duration_ms=3000.0,
                     warmup_ms=1000.0)),
    "9b": Figure(figure9_throughput_batching,
                 dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=40, duration_ms=2500.0,
                      warmup_ms=1000.0)),
    "10": Figure(figure10_slow_paths,
                 dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=15, duration_ms=3000.0,
                      warmup_ms=1000.0)),
    "11": Figure(figure11_breakdown,
                 dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=5, duration_ms=4000.0,
                      warmup_ms=1000.0)),
    "12": Figure(figure12_failure_timeline,
                 dict(clients_per_site=10, crash_at_ms=5000.0, total_ms=12000.0)),
    "ablation": Figure(ablation_wait_condition,
                       dict(conflict_rates=(0.1, 0.3), clients_per_site=10,
                            duration_ms=2500.0, warmup_ms=500.0)),
}
