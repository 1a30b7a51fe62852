"""Shared helpers for the figure suite.

Every module here regenerates one figure of the paper by calling its driver
with no arguments — the driver's defaults are the committed parameters — and
writes the table and BENCH record over the committed files under
``benchmarks/results/`` (the same files ``repro figure N --out
benchmarks/results`` writes), so ``git status`` stays clean exactly when the
figure is reproduced byte for byte.  What is left in the modules is the
figure's shape assertions.
"""

from __future__ import annotations

import pathlib

import pytest


@pytest.fixture
def results_dir() -> pathlib.Path:
    """Where the committed tables and BENCH records live."""
    return pathlib.Path(__file__).parent / "results"
