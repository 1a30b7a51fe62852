"""Shared helpers for the figure suite.

The modules here check the committed figures; none of them writes one.  Each
test of ``test_figure_shapes.py`` asserts the shape of one figure on its
committed ``BENCH_<stem>.json`` record — a read of a file, not a run — and
names the PAPER.md line that shape comes from.
``test_figure_slice.py`` re-runs a few sweep cells in memory and compares
them with the same records.  The records themselves are regenerated by one
command, ``repro figure all --out benchmarks/results`` (CI's record gate and
the nightly job run it and require an empty ``git diff``).
"""

from __future__ import annotations

import json
import pathlib

import pytest


@pytest.fixture
def results_dir() -> pathlib.Path:
    """Where the committed tables and BENCH records live."""
    return pathlib.Path(__file__).parent / "results"


@pytest.fixture
def committed_series(results_dir):
    """``committed_series(stem)``: the series of the committed
    ``BENCH_<stem>.json`` record."""
    def read(stem: str) -> dict:
        return json.loads((results_dir / f"BENCH_{stem}.json").read_text())["series"]

    return read
