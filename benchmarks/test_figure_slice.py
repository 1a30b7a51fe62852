"""A slice of the committed figure sweeps, re-run and compared in memory.

Every sweep cell is hermetic — its RNG stream is forked from the figure's
seed keyed on the cell's coordinates — so a cell re-run alone through
:func:`~repro.harness.figures.run_figure`'s ``cell_filter`` must land on
exactly the values the full run committed.  The slice below runs in
seconds and, with ``test_cli.py``'s byte check of Figure 7 (Multi-Paxos,
Mencius, CAESAR), covers all five protocols, both cost models (Figure 6 runs on the default one, Figure 9 on
:func:`repro.runtime.costs.throughput_cost_model`), batching (9b's
Multi-Paxos cell runs once with batching off and once with it on) and the
wait-off cell, whose order the sweep itself checks (a cell whose live
replicas executed conflicting commands in different orders fails its
sweep).  Nothing is written.

Records are committed from Python 3.11.  3.12 made ``sum()`` of floats
compensated, which moves the last digits of the series' means, so there
the values are compared at the tables' printed precision (one decimal).
"""

from __future__ import annotations

import sys

import pytest

from repro.harness.figures import FIGURES, run_figure

#: Figure key -> the cells of its sweep that are re-run.
SLICE = {
    "6": ("fig6/epaxos/0.3", "fig6/m2paxos/0.3"),
    "9": ("fig9/epaxos/0.3",),
    "9b": ("fig9/multipaxos",),
    "ablation": ("ablation/wait-off/0.5",),
}


@pytest.mark.parametrize("key", SLICE)
def test_slice_reproduces_the_committed_record(key, committed_series):
    result = run_figure(key, workers=1, cell_filter=SLICE[key])
    ran = {(label, x): y for label, points in result.record.series.items()
           for x, y in points.items() if y is not None}
    assert ran, f"no cell of figure {key} matched {SLICE[key]}"
    committed = committed_series(FIGURES[key].stem)
    expected = {(label, x): committed[label][x] for label, x in ran}
    if sys.version_info < (3, 12):
        assert ran == expected
    else:
        assert ran == pytest.approx(expected, abs=0.05)
