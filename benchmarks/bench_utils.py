"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import pathlib

from repro.metrics.perf import measure, write_record

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_once(benchmark, fn, *args, perf_name=None, perf_series=None, perf_extra=None,
             **kwargs):
    """Run a figure driver exactly once under pytest-benchmark timing.

    The drivers are full experiments (tens of simulated seconds each), so a
    single round is the right granularity; pytest-benchmark still reports the
    wall-clock cost of regenerating the figure.

    Besides the human-oriented pytest-benchmark numbers, the run also writes
    a machine-readable ``BENCH_<name>.json`` record (simulator events
    executed and the figure's series — nothing wall-clock) under
    ``benchmarks/results/``, so a rerun rewrites it byte-identically unless
    the simulation's behaviour changed.

    Args:
        perf_name: overrides the record name (defaults to ``fn.__name__``);
            also forces a record for drivers that return no figure series.
        perf_series: optional ``result -> series-dict`` extractor for drivers
            that return something other than a single FigureResult (e.g. a
            tuple of series), so their records still carry the figure data.
        perf_extra: optional ``result -> dict`` extractor merged into the
            record's ``extra`` field; deterministic values only (e.g. codec
            bytes per decision).
    """
    name = perf_name or fn.__name__
    captured = {}

    def measured(*f_args, **f_kwargs):
        result, captured["record"] = measure(name, fn, *f_args, **f_kwargs)
        return result

    result = benchmark.pedantic(measured, args=args, kwargs=kwargs, rounds=1, iterations=1)
    record = captured.get("record")
    if record is not None:
        series = perf_series(result) if perf_series is not None else getattr(result, "series", None)
        if series is not None:
            record.series = {label: {str(k): v for k, v in points.items()}
                             for label, points in series.items()}
        if perf_extra is not None:
            record.extra.update(perf_extra(result))
        if series is not None or perf_name is not None:
            # Only figure drivers (or explicitly named measurements) get a
            # persistent record; helper-level calls stay out of results/.
            write_record(record, RESULTS_DIR)
    return result
