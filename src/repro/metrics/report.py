"""Plain-text reporting: the fixed-width table formatter and its users.

:func:`format_table` / :func:`format_series` render the paper's figures as
text tables (rows = x-axis values, columns = systems or sites), which is what
ends up in ``EXPERIMENTS.md`` and in the benchmark output.  The second half
of the module turns :class:`~repro.metrics.store.ResultsStore` rows back into
the same idiom for ``repro report``: a run listing, per-run offered-load
curves for overload sweeps, and cross-commit trend tables that show how a
label's headline metrics moved over time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.store import LoadPointRecord, ResultsStore, RunRecord
from repro.runtime.stats import ProtocolStats


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width text table.

    Args:
        title: table caption printed above the grid.
        headers: column names.
        rows: row values; ``None`` cells render as ``-``; floats are rendered
            with one decimal digit.
    """
    def fmt(cell: object) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return f"{cell:.1f}"
        return str(cell)

    materialized: List[List[str]] = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[index]) for index, cell in enumerate(cells))

    lines = [title, render_row([str(h) for h in headers]),
             "-+-".join("-" * width for width in widths)]
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


def format_protocol_stats(per_replica_stats: Sequence[ProtocolStats],
                          title: str = "protocol counters") -> str:
    """Render cluster-wide protocol counters without protocol special-casing.

    Every replica carries the same unified
    :class:`~repro.runtime.stats.ProtocolStats` record, so this sums the
    records and prints whichever counters actually moved — no knowledge of
    which protocol produced them is needed.  Returns an empty string when
    nothing moved (e.g. before any command was ordered).
    """
    totals: Dict[str, int] = {}
    for stats in per_replica_stats:
        for name, value in stats.non_zero():
            totals[name] = totals.get(name, 0) + value
    if not totals:
        return ""
    lines = [f"{title}:"]
    lines.extend(f"  {name.replace('_', ' '):<24} {value}"
                 for name, value in totals.items())
    return "\n".join(lines)


def format_series(title: str, series: Dict[str, Dict[object, Optional[float]]],
                  x_label: str = "x") -> str:
    """Render a dict-of-dicts ``{series_name: {x: y}}`` as a table keyed by x."""
    xs: List[object] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series.keys())
    rows = []
    for x in xs:
        rows.append([x] + [series[name].get(x) for name in series])
    return format_table(title, headers, rows)


#: Metrics promoted into the trend table when present in a run's metrics
#: JSON, in display order, with their short column headers.
TREND_METRICS = {"throughput_per_second": "thru/s", "goodput_per_second": "good/s",
                 "peak_goodput": "peak good/s",
                 "knee_offered_per_second": "knee offered/s",
                 "mean_latency_ms": "mean ms", "p50_latency_ms": "p50 ms",
                 "p99_latency_ms": "p99 ms", "p999_latency_ms": "p999 ms",
                 "rejected": "rejected", "events_per_second": "events/s"}


def format_runs_table(runs: Sequence[RunRecord],
                      title: str = "stored runs (newest first)") -> str:
    """Render a run listing: identity columns, no metric payloads."""
    rows = [[run.run_id, run.created_at, run.kind, run.label,
             run.protocol, run.substrate, run.git_commit]
            for run in runs]
    return format_table(title, ["run", "created", "kind", "label", "protocol",
                                "substrate", "commit"], rows)


def format_load_points_table(run: RunRecord, points: Sequence[LoadPointRecord]) -> str:
    """Render one overload run's saturation curve."""
    title = (f"run {run.run_id} [{run.label}] {run.protocol or '-'}"
             f"/{run.substrate or '-'} @ {run.git_commit or '-'}"
             + (f" admission={run.config['admission']}"
                if run.config.get("admission") else ""))
    rows = [[point.offered_per_second, point.submitted, point.completed,
             point.rejected, point.goodput_per_second, point.p50_ms,
             point.p99_ms, point.p999_ms]
            for point in points]
    return format_table(title, ["offered/s", "submitted", "completed", "rejected",
                                "goodput/s", "p50 ms", "p99 ms", "p999 ms"], rows)


def format_trend_table(label: str, runs: Sequence[RunRecord]) -> str:
    """Render the cross-run/cross-commit trend for one label, oldest first.

    Only metric columns where at least one run has a value are shown, so
    experiment labels and overload labels each get their natural columns.
    """
    ordered = list(reversed(runs))  # runs() returns newest first
    keys = [key for key in TREND_METRICS
            if any(run.metrics.get(key) is not None for run in ordered)]
    headers = ["run", "created", "commit", "protocol"] + \
        [TREND_METRICS[key] for key in keys]
    rows = [[run.run_id, run.created_at, run.git_commit, run.protocol]
            + [run.metrics.get(key) for key in keys]
            for run in ordered]
    return format_table(f"trend [{label}] ({len(ordered)} runs)", headers, rows)


def render_report(store: ResultsStore, kind: Optional[str] = None,
                  label: Optional[str] = None, limit: int = 20,
                  points: bool = False) -> str:
    """Build the full ``repro report`` output.

    Args:
        store: the results store to read.
        kind: restrict to one run kind (``experiment`` / ``overload`` / ...).
        label: restrict to one label; when given, the trend table for it is
            rendered (otherwise one trend table per label).
        limit: newest runs per label to include.
        points: also render each overload run's per-load-point curve.

    Returns:
        The report text; a friendly one-liner when nothing matches.
    """
    labels = [label] if label is not None else store.labels(kind=kind)
    sections: List[str] = []
    listed: List[RunRecord] = []
    trend_sections: List[str] = []
    point_sections: List[str] = []
    for name in labels:
        runs = store.runs(kind=kind, label=name, limit=limit)
        if not runs:
            continue
        listed.extend(runs)
        trend_sections.append(format_trend_table(name, runs))
        if points:
            for run in runs:
                curve = store.load_points(run.run_id)
                if curve:
                    point_sections.append(format_load_points_table(run, curve))
    if not listed:
        scope = " ".join(part for part in
                         (f"kind={kind}" if kind else "",
                          f"label={label}" if label else "") if part)
        return f"no stored runs{' matching ' + scope if scope else ''} in {store.path}"
    listed.sort(key=lambda run: run.run_id, reverse=True)
    sections.append(format_runs_table(listed[:limit]))
    sections.extend(trend_sections)
    sections.extend(point_sections)
    return "\n\n".join(sections)
