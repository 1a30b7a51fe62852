"""Plain-text reporting: the fixed-width table formatter and its users.

:func:`format_table` / :func:`format_series` render the paper's figures as
text tables (rows = x-axis values, columns = systems or sites), which is what
ends up in ``EXPERIMENTS.md`` and in the benchmark output;
:func:`format_protocol_stats` prints a run's protocol counters.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

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

