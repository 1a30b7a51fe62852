"""Process-parallel sweep orchestrator for figure experiments.

A *sweep* is a grid of independent experiment cells (protocol × conflict
rate × client count × topology × ...).  PR 1 made a single cell fast; this
module makes a whole grid scale with the hardware instead of with the grid
width: cells fan out across worker processes and their per-cell metric
payloads are aggregated back in a fixed order.

Determinism is the load-bearing guarantee.  Each cell is hermetic — it
builds its own simulator whose RNG stream is forked from the sweep's base
seed keyed on the cell's coordinates (:meth:`DeterministicRandom.fork_cell`),
so a cell computes byte-identical results whether it runs in-process, in a
worker, alone, or re-ordered.  Aggregation walks cells in their submission
order.  Consequently ``run_sweep(cells, workers=4)`` and
``run_sweep(cells, workers=1)`` produce byte-identical figure tables and
BENCH series, which the test suite enforces.

Worker failures are loud, never hangs: an exception inside a cell, a run
whose live replicas executed two conflicting commands in different orders,
or a worker process dying outright, aborts the sweep with a
:class:`SweepError` naming the failing cell.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, process
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    summarize_experiment,
)
from repro.sim.random import DeterministicRandom, stable_label
from repro.sim.simulator import total_events_executed

#: Worker specification: a positive process count, or ``"auto"`` for one per
#: CPU.  One worker runs every cell in-process.
Workers = Union[int, str]

#: Cell key type: a tuple of primitive coordinates (strings/numbers).
CellKey = Tuple[object, ...]


class SweepError(RuntimeError):
    """A sweep cell failed (raised an exception, broke the order of its
    conflicting commands, or its worker died)."""


def key_string(key: Sequence[object]) -> str:
    """Human/CLI-facing form of a cell key, e.g. ``fig9/caesar/0.1``."""
    return "/".join(stable_label(part) for part in key)


def matches_any(key: Sequence[object], patterns: Sequence[str]) -> bool:
    """Whether the cell key matches one of the glob ``patterns``.

    Patterns are matched with :func:`fnmatch.fnmatchcase` against
    :func:`key_string`, so ``fig9/caesar/*`` selects one protocol's row and
    ``*/0.3`` selects one conflict-rate column.
    """
    text = key_string(key)
    return any(fnmatchcase(text, pattern) for pattern in patterns)


@dataclass(frozen=True)
class SweepCell:
    """One hermetic unit of work in a sweep.

    Attributes:
        key: the cell's coordinates; also names it in errors and filters.
        config: the experiment :func:`run_experiment` runs (already carrying
            the cell's seed — use :func:`sweep_cell` to derive it from a base
            seed).
        collect: reduces the :class:`ExperimentResult` to a small picklable
            payload inside the worker, so the full simulator state never
            crosses the process boundary (a top-level function, picklable by
            reference for worker dispatch).
    """

    key: CellKey
    config: ExperimentConfig
    collect: Callable[[ExperimentResult], object] = summarize_experiment


def sweep_cell(key: Sequence[object], config: ExperimentConfig, base_seed: int,
               collect: Callable[[ExperimentResult], object] = summarize_experiment
               ) -> SweepCell:
    """Build a cell whose RNG stream is forked from ``base_seed``.

    The cell's seed is ``DeterministicRandom(base_seed).fork_cell(key)``:
    every cell of a sweep draws from an independent stream, keyed on
    coordinates rather than on position, so inserting or filtering cells
    never perturbs its neighbours.
    """
    key = tuple(key)
    config = replace(config, seed=DeterministicRandom(base_seed).fork_cell(key).seed)
    return SweepCell(key=key, config=config, collect=collect)


@dataclass
class CellOutcome:
    """What one executed cell reported back."""

    key: CellKey
    payload: object
    events_executed: int


@dataclass
class SweepResult:
    """Aggregated outcome of one sweep run."""

    outcomes: List[CellOutcome]
    skipped: int = 0

    def __post_init__(self) -> None:
        self._by_key = {outcome.key: outcome for outcome in self.outcomes}

    def payload(self, key: Sequence[object]) -> object:
        """The collected payload of cell ``key`` (``None`` if filtered out)."""
        outcome = self._by_key.get(tuple(key))
        return outcome.payload if outcome is not None else None

    @property
    def events_executed(self) -> int:
        """Simulation events executed across every cell."""
        return sum(outcome.events_executed for outcome in self.outcomes)


def resolve_workers(workers: Workers, cell_count: int) -> int:
    """Turn a worker specification into a concrete process count.

    ``"auto"`` means one worker per CPU; anything else must be a positive
    count (an int, or its decimal text as the CLI passes it).  The count is
    capped at the number of cells — extra processes would only sit idle.
    """
    if workers == "auto":
        count = os.cpu_count() or 1
    else:
        try:
            count = int(workers)
        except (TypeError, ValueError):
            count = 0
        if count < 1:
            raise ValueError(f"workers must be 'auto' or a positive count, got {workers!r}")
    return min(count, max(cell_count, 1))


def _execute_cell(cell: SweepCell) -> CellOutcome:
    """Run one cell, check its order and reduce it to its payload (runs
    inside the worker)."""
    events_before = total_events_executed()
    result = run_experiment(cell.config)
    if result.consistency_violations:
        raise SweepError(f"{result.consistency_violations} order violations: live replicas "
                         f"executed conflicting commands in different orders")
    return CellOutcome(key=cell.key, payload=cell.collect(result),
                       events_executed=total_events_executed() - events_before)


def _mp_context():
    """Pick the process start method: ``fork`` where available (fast, shares
    the warm interpreter), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_sweep(cells: Sequence[SweepCell], workers: Workers,
              cell_filter: Optional[Sequence[str]] = None) -> SweepResult:
    """Execute every cell and aggregate the payloads in cell order.

    Args:
        cells: the grid, in the order results should be aggregated.
        workers: process count (1 runs in-process), or ``"auto"`` for one
            per CPU.
        cell_filter: glob patterns over :func:`key_string`; when given, only
            matching cells run (the rest report ``None`` payloads).

    Returns:
        A :class:`SweepResult` whose outcome order matches ``cells``.

    Raises:
        SweepError: a cell raised, its live replicas executed conflicting
            commands in different orders, or its worker process died.
    """
    selected = list(cells)
    skipped = 0
    if cell_filter:
        kept = [cell for cell in selected if matches_any(cell.key, cell_filter)]
        skipped = len(selected) - len(kept)
        selected = kept
    worker_count = resolve_workers(workers, len(selected))

    if worker_count == 1:
        outcomes = []
        for cell in selected:
            try:
                outcomes.append(_execute_cell(cell))
            except Exception as exc:
                raise SweepError(
                    f"sweep cell {key_string(cell.key)!r} failed: {exc}") from exc
        return SweepResult(outcomes=outcomes, skipped=skipped)

    outcomes = []
    with ProcessPoolExecutor(max_workers=worker_count, mp_context=_mp_context()) as pool:
        futures = [(cell, pool.submit(_execute_cell, cell)) for cell in selected]
        try:
            for cell, future in futures:
                outcomes.append(future.result())
        except process.BrokenProcessPool as exc:
            raise SweepError(
                f"worker process died while running sweep cell "
                f"{key_string(cell.key)!r} (or a sibling cell); the sweep was "
                f"aborted rather than left hanging") from exc
        except Exception as exc:
            raise SweepError(
                f"sweep cell {key_string(cell.key)!r} failed: {exc}") from exc
        finally:
            # Don't start queued cells once the sweep's outcome is decided;
            # already-running cells finish (bounded work), queued ones don't.
            pool.shutdown(wait=True, cancel_futures=True)

    return SweepResult(outcomes=outcomes, skipped=skipped)
