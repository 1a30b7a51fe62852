"""The paper's figures: one :data:`FIGURES` row each, and the one runner.

A row (:class:`Figure`) names the figure's record, its base seed, a *grid*
function that builds the figure's seeded sweep cells, and a *reduction* that
turns the cells' payloads into the figure's series and text table.  The
grid's keyword defaults *are* the figure: :func:`run_figure` with no
overrides produces the table and BENCH record committed under
``benchmarks/results/`` byte for byte, and the row's ``quick`` dict
overrides exactly the grid's keywords to scale it down.  A figure is
parameterised in this module and nowhere else.

The figures intentionally report *shape* rather than absolute numbers: the
simulated substrate reproduces message delays, quorum sizes and CPU queuing,
not the authors' JVM/Go runtimes, so who-wins and where-crossovers-fall are
the comparable quantities.

Every cell draws from an RNG stream forked from the row's seed keyed on the
cell's coordinates (:func:`repro.harness.sweep.sweep_cell`), so cells are
hermetic and a grid can fan out across worker processes with output
byte-identical to a one-worker run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import CaesarConfig
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    attach_clients,
    build_experiment_cluster,
)
from repro.harness.sweep import SweepCell, SweepResult, Workers, run_sweep, sweep_cell
from repro.metrics.collector import MetricsCollector
from repro.metrics.perf import PerfRecord, write_record
from repro.metrics.report import format_series
from repro.runtime.batching import BatchingConfig
from repro.runtime.costs import throughput_cost_model
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

#: The multi-leader protocols of the latency figures (6 and 8).
LATENCY_PROTOCOLS = ("caesar", "epaxos", "m2paxos")

#: Figure 7's systems: name -> (protocol, protocol options).
SINGLE_LEADER_SYSTEMS = {
    "multipaxos-IR": ("multipaxos", {"leader_id": EC2_SITES.index("ireland")}),
    "multipaxos-IN": ("multipaxos", {"leader_id": EC2_SITES.index("mumbai")}),
    "mencius": ("mencius", {}),
    "caesar-0%": ("caesar", {}),
}

#: Figure 9's protocols, and the three of them 9b runs.  9b omits Mencius as
#: the paper does: the authors' Mencius implementation does not batch.
THROUGHPUT_PROTOCOLS = ("caesar", "epaxos", "m2paxos", "multipaxos", "mencius")
BATCHING_PROTOCOLS = ("caesar", "epaxos", "multipaxos")

#: The ablation's variants: series label -> whether the wait condition is on.
WAIT_VARIANTS = {"wait-on": True, "wait-off": False}

#: ``{series label: {x: y}}``; ``None`` marks a cell that did not run.
Series = Dict[str, Dict[object, Optional[float]]]

#: A grid: the figure's sweeps, each a list of seeded cells (one sweep for
#: every figure but 9b, which runs its grid with batching off, then on).
Grid = List[List[SweepCell]]


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

def _fig6_cells(seed: int, *, conflict_rates: Sequence[float] = PAPER_CONFLICT_RATES,
                clients_per_site: int = 10, duration_ms: float = 5000.0,
                warmup_ms: float = 1500.0) -> Grid:
    """Figure 6: per-site average latency while varying the conflict percentage."""
    return [[sweep_cell(
        ("fig6", protocol, rate),
        ExperimentConfig(protocol=protocol, conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms),
        base_seed=seed)
        for protocol in LATENCY_PROTOCOLS for rate in conflict_rates]]


def _fig6_reduce(sweep: SweepResult, *, conflict_rates: Sequence[float],
                 **_) -> Tuple[Series, str]:
    series: Series = {}
    per_site: Dict[str, Series] = {site: {} for site in EC2_SITES}
    for protocol in LATENCY_PROTOCOLS:
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
    return series, "\n\n".join(tables)


# --------------------------------------------------------------------------
# Figure 7: Multi-Paxos (near/far leader), Mencius, CAESAR per-site latency
# --------------------------------------------------------------------------

def _fig7_cells(seed: int, *, clients_per_site: int = 10, duration_ms: float = 5000.0,
                warmup_ms: float = 1500.0) -> Grid:
    """Figure 7: latency of Multi-Paxos (leader in Ireland vs Mumbai), Mencius, CAESAR 0%."""
    return [[sweep_cell(
        ("fig7", name),
        ExperimentConfig(protocol=protocol, protocol_options=dict(options),
                         conflict_rate=0.0, clients_per_site=clients_per_site,
                         duration_ms=duration_ms, warmup_ms=warmup_ms),
        base_seed=seed)
        for name, (protocol, options) in SINGLE_LEADER_SYSTEMS.items()]]


def _fig7_reduce(sweep: SweepResult, **_) -> Tuple[Series, str]:
    series: Series = {}
    for name in SINGLE_LEADER_SYSTEMS:
        payload = sweep.payload(("fig7", name))
        series[name] = {EC2_SHORT_LABELS[site]: _site_mean(payload, site)
                        for site in EC2_SITES}
    return series, format_series("Figure 7 — mean latency (ms) per site", series, "site")


# --------------------------------------------------------------------------
# Figure 8: latency vs number of connected clients (10% conflicts)
# --------------------------------------------------------------------------

def _fig8_cells(seed: int, *, client_counts: Sequence[int] = (5, 50, 250, 500),
                duration_ms: float = 4000.0, warmup_ms: float = 1500.0) -> Grid:
    """Figure 8: latency as the number of connected closed-loop clients grows."""
    cost_model = throughput_cost_model()
    return [[sweep_cell(
        ("fig8", protocol, total_clients),
        ExperimentConfig(protocol=protocol, conflict_rate=0.10,
                         clients_per_site=max(1, total_clients // len(EC2_SITES)),
                         duration_ms=duration_ms, warmup_ms=warmup_ms,
                         cost_model=cost_model),
        base_seed=seed)
        for protocol in LATENCY_PROTOCOLS for total_clients in client_counts]]


def _fig8_reduce(sweep: SweepResult, *, client_counts: Sequence[int],
                 **_) -> Tuple[Series, str]:
    series: Series = {
        protocol: {total_clients: _get(sweep.payload(("fig8", protocol, total_clients)),
                                       "mean_latency_ms")
                   for total_clients in client_counts}
        for protocol in LATENCY_PROTOCOLS}
    return series, format_series(
        "Figure 8 — mean latency (ms) vs connected clients (10% conflicts)", series, "clients")


# --------------------------------------------------------------------------
# Figure 9: throughput vs conflict rate, batching off (9) and on (9b)
# --------------------------------------------------------------------------

def _throughput_key(protocol: str, rate: float) -> tuple:
    """Figure 9's cell key: one cell per conflict-oblivious protocol."""
    if protocol in CONFLICT_OBLIVIOUS_PROTOCOLS:
        return ("fig9", protocol)
    return ("fig9", protocol, rate)


def _throughput_cells(seed: int, protocols: Sequence[str],
                      batching: Optional[BatchingConfig], conflict_rates: Sequence[float],
                      clients_per_site: int, duration_ms: float,
                      warmup_ms: float) -> List[SweepCell]:
    """The throughput sweep shared by Figures 9 and 9b.

    The paper drives the systems to saturation with open-loop clients.  This
    sweep reaches saturation with a large closed-loop client population
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
    return [sweep_cell(
        _throughput_key(protocol, rate),
        ExperimentConfig(protocol=protocol, conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms, cost_model=cost_model, batching=batching),
        base_seed=seed)
        for protocol in protocols
        for rate in ((0.0,) if protocol in CONFLICT_OBLIVIOUS_PROTOCOLS else conflict_rates)]


def _throughput_reduce(sweep: SweepResult, protocols: Sequence[str],
                       conflict_rates: Sequence[float], suffix: str) -> Tuple[Series, str]:
    series: Series = {
        protocol: {_conflict_label(rate): _get(sweep.payload(_throughput_key(protocol, rate)),
                                               "throughput_per_second")
                   for rate in conflict_rates}
        for protocol in protocols}
    return series, format_series(
        f"Figure 9 — throughput (commands/second) vs conflict percentage, {suffix}",
        series, "conflict")


def _fig9_cells(seed: int, *, conflict_rates: Sequence[float] = CONFLICT_RATES_TO_50,
                clients_per_site: int = 60, duration_ms: float = 4000.0,
                warmup_ms: float = 1500.0) -> Grid:
    """Figure 9 (no batching): peak throughput while varying the conflict rate."""
    return [_throughput_cells(seed, THROUGHPUT_PROTOCOLS, None, conflict_rates,
                              clients_per_site, duration_ms, warmup_ms)]


def _fig9_reduce(sweep: SweepResult, *, conflict_rates: Sequence[float],
                 **_) -> Tuple[Series, str]:
    return _throughput_reduce(sweep, THROUGHPUT_PROTOCOLS, conflict_rates,
                              "batching disabled")


def _fig9b_cells(seed: int, *, conflict_rates: Sequence[float] = (0.0, 0.10, 0.30),
                 clients_per_site: int = 60, duration_ms: float = 4000.0,
                 warmup_ms: float = 1500.0) -> Grid:
    """Figure 9 (bottom): the Figure 9 grid with batching off, then on.

    Both sweeps use Figure 9's cell keys, so a cell and its batched twin
    share a seed.
    """
    batching = BatchingConfig(window_ms=2.0, max_messages=32, marginal_cost_factor=0.25)
    shared = (conflict_rates, clients_per_site, duration_ms, warmup_ms)
    return [_throughput_cells(seed, BATCHING_PROTOCOLS, None, *shared),
            _throughput_cells(seed, BATCHING_PROTOCOLS, batching, *shared)]


def _fig9b_reduce(without: SweepResult, with_batching: SweepResult, *,
                  conflict_rates: Sequence[float], **_) -> Tuple[Series, str]:
    plain, plain_table = _throughput_reduce(without, BATCHING_PROTOCOLS, conflict_rates,
                                            "batching disabled")
    batched, batched_table = _throughput_reduce(with_batching, BATCHING_PROTOCOLS,
                                                conflict_rates, "batching enabled")
    series = {
        **{f"no-batching {p}": points for p, points in plain.items()},
        **{f"batching {p}": points for p, points in batched.items()},
    }
    return series, plain_table + "\n\n" + batched_table


# --------------------------------------------------------------------------
# Figure 10: % of slow-path decisions vs conflict rate (CAESAR vs EPaxos)
# --------------------------------------------------------------------------

SLOW_PATH_PROTOCOLS = ("epaxos", "caesar")


def _fig10_cells(seed: int, *, conflict_rates: Sequence[float] = CONFLICT_RATES_TO_50,
                 clients_per_site: int = 25, duration_ms: float = 4000.0,
                 warmup_ms: float = 1000.0) -> Grid:
    """Figure 10: fraction of commands decided via the slow path.

    The run uses a high closed-loop client count so that conflicting commands
    genuinely overlap in flight, which is what drives the difference between
    CAESAR's wait-based fast path and EPaxos' equal-dependency fast path.
    """
    return [[sweep_cell(
        ("fig10", protocol, rate),
        ExperimentConfig(protocol=protocol, conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms),
        base_seed=seed)
        for protocol in SLOW_PATH_PROTOCOLS for rate in conflict_rates]]


def _fig10_reduce(sweep: SweepResult, *, conflict_rates: Sequence[float],
                  **_) -> Tuple[Series, str]:
    series: Series = {}
    for protocol in SLOW_PATH_PROTOCOLS:
        series[protocol] = {}
        for rate in conflict_rates:
            ratio = _get(sweep.payload(("fig10", protocol, rate)), "slow_path_ratio")
            series[protocol][_conflict_label(rate)] = (ratio * 100.0) if ratio is not None else None
    return series, format_series("Figure 10 — % of commands decided on the slow path",
                                 series, "conflict")


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


def _fig11_cells(seed: int, *, conflict_rates: Sequence[float] = CONFLICT_RATES_TO_50,
                 clients_per_site: int = 10, duration_ms: float = 5000.0,
                 warmup_ms: float = 1500.0) -> Grid:
    """Figure 11: (a) proportion of latency per ordering phase, (b) wait time per site."""
    return [[sweep_cell(
        ("fig11", rate),
        ExperimentConfig(protocol="caesar", conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms),
        base_seed=seed, collect=_collect_caesar_breakdown)
        for rate in conflict_rates]]


def _fig11_reduce(sweep: SweepResult, *, conflict_rates: Sequence[float],
                  **_) -> Tuple[Series, str]:
    phase_series: Series = {"propose": {}, "retry": {}, "deliver": {}}
    wait_series: Series = {EC2_SHORT_LABELS[site]: {} for site in EC2_SITES}
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
    return phase_series, table_a + "\n\n" + table_b


# --------------------------------------------------------------------------
# Figure 12: throughput timeline when one node crashes
# --------------------------------------------------------------------------

CRASH_PROTOCOLS = ("caesar", "epaxos")


def _run_crash_timeline(config: ExperimentConfig, crash_at_ms: float) -> Dict[str, object]:
    """Sweep runner for Figure 12: one run with a mid-experiment crash.

    Clients of the crashed replica time out and reconnect to the remaining
    replicas, and the protocols' recovery machinery finalizes the commands
    the crashed leader left behind.  Returns the throughput timeline in
    1-second buckets directly (the cluster never leaves the worker process).
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
    timeline = metrics.timeline(bucket_ms=1000.0, start_ms=0.0, end_ms=total_ms)
    return {"timeline": timeline}


def _fig12_cells(seed: int, *, clients_per_site: int = 20, crash_at_ms: float = 8000.0,
                 total_ms: float = 20000.0) -> Grid:
    """Figure 12: cluster throughput over time with one replica crashing mid-run."""
    return [[sweep_cell(
        ("fig12", protocol),
        ExperimentConfig(protocol=protocol, conflict_rate=0.02,
                         clients_per_site=clients_per_site, duration_ms=total_ms,
                         warmup_ms=0.0, recovery=True),
        base_seed=seed, runner=_run_crash_timeline, collect=None,
        options={"crash_at_ms": crash_at_ms})
        for protocol in CRASH_PROTOCOLS]]


def _fig12_reduce(sweep: SweepResult, *, crash_at_ms: float, **_) -> Tuple[Series, str]:
    series: Series = {}
    for protocol in CRASH_PROTOCOLS:
        payload = sweep.payload(("fig12", protocol))
        if payload is not None:
            series[protocol] = {f"{int(t / 1000)}s": tput for t, tput in payload["timeline"]}
    return series, format_series("Figure 12 — throughput (commands/second) over time, "
                                 f"crash at t={int(crash_at_ms / 1000)}s", series, "time")


# --------------------------------------------------------------------------
# Ablation: CAESAR with and without the wait condition
# --------------------------------------------------------------------------

def _ablation_cells(seed: int, *, conflict_rates: Sequence[float] = (0.10, 0.30, 0.50),
                    clients_per_site: int = 20, duration_ms: float = 4000.0,
                    warmup_ms: float = 1000.0) -> Grid:
    """Ablation of the paper's key mechanism (Section IV-A): the wait condition.

    Without it, an acceptor that received a conflicting higher-timestamp
    command first must reject the proposal, which turns fast decisions into
    slow ones exactly the way EPaxos' equal-dependency rule does.  This
    grid runs CAESAR with the wait condition on and off; the reduction
    reports the effect on the slow-path share and on latency.
    """
    return [[sweep_cell(
        ("ablation", label, rate),
        ExperimentConfig(protocol="caesar", conflict_rate=rate,
                         clients_per_site=clients_per_site, duration_ms=duration_ms,
                         warmup_ms=warmup_ms,
                         protocol_options={"config": CaesarConfig(
                             recovery_enabled=False, wait_condition_enabled=enabled)}),
        base_seed=seed)
        for label, enabled in WAIT_VARIANTS.items() for rate in conflict_rates]]


def _ablation_reduce(sweep: SweepResult, *, conflict_rates: Sequence[float],
                     **_) -> Tuple[Series, str]:
    slow_series: Series = {}
    latency_series: Series = {}
    for label in WAIT_VARIANTS:
        slow_series[label] = {}
        latency_series[label] = {}
        for rate in conflict_rates:
            payload = sweep.payload(("ablation", label, rate))
            x = _conflict_label(rate)
            ratio = _get(payload, "slow_path_ratio")
            slow_series[label][x] = (ratio or 0.0) * 100.0 if payload is not None else None
            latency_series[label][x] = _get(payload, "mean_latency_ms")
    table = (format_series("Ablation — % slow decisions, wait condition on vs off",
                           slow_series, "conflict")
             + "\n\n"
             + format_series("Ablation — mean latency (ms), wait condition on vs off",
                             latency_series, "conflict"))
    series = {
        **{f"slow% {label}": points for label, points in slow_series.items()},
        **{f"latency {label}": points for label, points in latency_series.items()},
    }
    return series, table


# --------------------------------------------------------------------------
# The figure table and its runner
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One regenerable figure."""

    #: File stem of the figure's table (``<stem>.txt``) and record
    #: (``BENCH_<stem>.json``).
    stem: str
    #: Base seed every cell's RNG stream is forked from.
    seed: int
    #: ``grid(seed, **keywords)`` -> the figure's sweeps of seeded cells; its
    #: keyword defaults are the committed figure.
    grid: Callable[..., Grid]
    #: ``reduce(*sweep_results, **keywords)`` -> ``(series, table)``, given
    #: the grid's keywords with their defaults filled in.
    reduce: Callable[..., Tuple[Series, str]]
    #: Scaled-down overrides of the grid's keywords so the figure finishes
    #: fast (coarser numbers, never written over a committed record).
    quick: Mapping[str, object]

    def cells(self, **grid_params) -> List[SweepCell]:
        """Every cell of the grid, in run order, without running any."""
        return [cell for sweep in self.grid(self.seed, **grid_params) for cell in sweep]


#: ``repro figure <key>`` -> figure, in presentation order.
FIGURES: Dict[str, Figure] = {
    "6": Figure("figure6_latency_vs_conflicts", 11, _fig6_cells, _fig6_reduce,
                dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=5, duration_ms=4000.0,
                     warmup_ms=1000.0)),
    "7": Figure("figure7_single_leader_comparison", 12, _fig7_cells, _fig7_reduce,
                dict(clients_per_site=5, duration_ms=4000.0, warmup_ms=1000.0)),
    "8": Figure("figure8_client_scaling", 13, _fig8_cells, _fig8_reduce,
                dict(client_counts=(5, 50, 250), duration_ms=3000.0, warmup_ms=1000.0)),
    "9": Figure("figure9_throughput", 14, _fig9_cells, _fig9_reduce,
                dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=40, duration_ms=3000.0,
                     warmup_ms=1000.0)),
    "9b": Figure("figure9_throughput_batching", 14, _fig9b_cells, _fig9b_reduce,
                 dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=40, duration_ms=2500.0,
                      warmup_ms=1000.0)),
    "10": Figure("figure10_slow_paths", 15, _fig10_cells, _fig10_reduce,
                 dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=15, duration_ms=3000.0,
                      warmup_ms=1000.0)),
    "11": Figure("figure11_breakdown", 16, _fig11_cells, _fig11_reduce,
                 dict(conflict_rates=(0.0, 0.1, 0.3), clients_per_site=5, duration_ms=4000.0,
                      warmup_ms=1000.0)),
    "12": Figure("figure12_failure_timeline", 17, _fig12_cells, _fig12_reduce,
                 dict(clients_per_site=10, crash_at_ms=5000.0, total_ms=12000.0)),
    "ablation": Figure("ablation_wait_condition", 19, _ablation_cells, _ablation_reduce,
                       dict(conflict_rates=(0.1, 0.3), clients_per_site=10,
                            duration_ms=2500.0, warmup_ms=500.0)),
}


@dataclass
class FigureResult:
    """One figure run: its BENCH record, its text table and the sweeps behind them."""

    record: PerfRecord
    table: str
    sweeps: List[SweepResult]

    def write(self, results_dir: Path) -> Path:
        """Write ``<stem>.txt`` and ``BENCH_<stem>.json`` under ``results_dir``."""
        return write_record(self.record, self.table, results_dir)


def run_figure(key: str, *, workers: Workers = 1, cell_filter: Optional[Sequence[str]] = None,
               **grid_params) -> FigureResult:
    """Run figure ``key``'s grid, with ``grid_params`` over its defaults, and reduce it.

    Args:
        key: the figure's :data:`FIGURES` key.
        workers: process count for each sweep, or ``"auto"``.
        cell_filter: glob patterns over the cell keys; the cells outside it
            do not run and reduce to ``None``.

    The record's event count is summed over the figure's sweeps, and its
    series carries JSON-safe (string) x keys.
    """
    figure = FIGURES[key]
    call = inspect.signature(figure.grid).bind(figure.seed, **grid_params)
    call.apply_defaults()
    sweeps = [run_sweep(cells, workers=workers, cell_filter=cell_filter)
              for cells in figure.grid(*call.args, **call.kwargs)]
    series, table = figure.reduce(*sweeps, **call.kwargs)
    record = PerfRecord(name=figure.stem,
                        events_executed=sum(sweep.events_executed for sweep in sweeps),
                        series={label: {str(x): y for x, y in points.items()}
                                for label, points in series.items()})
    return FigureResult(record=record, table=table, sweeps=sweeps)
