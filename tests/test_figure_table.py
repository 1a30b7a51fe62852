"""The figure table: every row's grid, its lister and its reductions.

``tests/data/figure_cells.json`` pins, for every figure's full and
``--quick`` grid, each cell's key and derived seed in run order: a cell
that moves, appears, disappears or is re-seeded changes a committed figure,
so it changes only by a reviewed diff of that file.  Regenerate it with
``PYTHONPATH=src python tests/test_figure_table.py >
tests/data/figure_cells.json``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.harness.figures import FIGURES, run_figure
from repro.harness.sweep import CellOutcome, SweepResult, key_string

CELLS_FILE = pathlib.Path(__file__).parent / "data" / "figure_cells.json"


def figure_cells() -> dict:
    """Per figure, its full and ``--quick`` grids as ``[key, seed]`` rows."""
    return {key: {mode: [[key_string(cell.key), cell.config.seed]
                         for cell in figure.cells(**params)]
                  for mode, params in (("full", {}), ("quick", figure.quick))}
            for key, figure in FIGURES.items()}


def test_every_grid_matches_the_golden_cells():
    golden = json.loads(CELLS_FILE.read_text())
    cells = figure_cells()
    assert list(cells) == list(golden)
    for key in golden:
        assert cells[key] == golden[key], key
    # Figure 9b runs the Figure 9 keys twice (batching off, then on).
    assert sum(len(grids["full"]) for grids in golden.values()) == 88


@pytest.mark.parametrize("key, cells", [("7", None), ("9b", ["fig9/multipaxos"])])
def test_the_listed_cells_are_the_cells_that_run(key, cells, capsys):
    argv = ["figure", key, "--quick", "--list-cells"] + (["--cells", *cells] if cells else [])
    assert main(argv) == 0
    listed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  * ")]
    assert listed
    result = run_figure(key, workers=1, cell_filter=cells, **FIGURES[key].quick)
    ran = [key_string(outcome.key) for sweep in result.sweeps for outcome in sweep.outcomes]
    assert ran == listed
    # The record counts the events of every sweep of the row.
    assert all(sweep.events_executed > 0 for sweep in result.sweeps)
    assert result.record.events_executed == sum(sweep.events_executed
                                                for sweep in result.sweeps)


def test_the_ablation_rounds_a_conflict_rate_to_its_label():
    # 0.29 * 100 is 28.999999999999996: truncating would print "28%".
    rates = (0.29, 0.57)
    sweep = SweepResult(outcomes=[
        CellOutcome(key=("ablation", label, rate),
                    payload={"slow_path_ratio": 0.25, "mean_latency_ms": 100.0},
                    events_executed=0)
        for label in ("wait-on", "wait-off") for rate in rates])
    series, table = FIGURES["ablation"].reduce(sweep, conflict_rates=rates)
    assert {x for points in series.values() for x in points} == {"29%", "57%"}
    assert series["slow% wait-off"]["29%"] == 25.0
    assert series["latency wait-on"]["57%"] == 100.0
    assert "28%" not in table and "56%" not in table


if __name__ == "__main__":
    cells = figure_cells()
    lines = ["{"]
    for index, (key, grids) in enumerate(cells.items()):
        lines.append(f" {json.dumps(key)}: {{")
        for mode_index, (mode, rows) in enumerate(grids.items()):
            lines.append(f"  {json.dumps(mode)}: [")
            lines.append(",\n".join(f"   {json.dumps(row)}" for row in rows))
            lines.append("  ]" + ("," if mode_index < len(grids) - 1 else ""))
        lines.append(" }" + ("," if index < len(cells) - 1 else ""))
    lines.append("}")
    print("\n".join(lines))
