"""Figure 11: CAESAR's latency breakdown and wait-condition times, on the
committed record and table.

Checks PAPER.md's Figure 11 line: (a) with no conflicts nearly all latency
is the proposal phase, and delivery takes a larger share as conflicts grow;
(b) the wait-condition time grows with the conflict rate.  The record does
not reproduce 11a visibly: every row of the committed table reads
``1.0 | 0.0 | 0.0`` (ROADMAP item 1).  No record holds 11b's wait times, so
they are read from the committed ``figure11_breakdown.txt``.
"""

from __future__ import annotations

import pytest

from repro.sim.topology import EC2_SHORT_LABELS


def wait_times(table: str) -> dict:
    """Figure 11b's rows of the committed table: ``{site: {conflict: ms}}``."""
    lines = table.split("Figure 11b", 1)[1].splitlines()[1:]
    header = [cell.strip() for cell in lines[0].split("|")]
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[2:] if line.strip()]
    return {site: {row[0]: float(row[column]) for row in rows}
            for column, site in enumerate(header) if column}


def test_figure11_breakdown_and_wait_times(committed_series, results_dir):
    series = committed_series("figure11_breakdown")
    propose = series["propose"]
    deliver = series["deliver"]
    retry = series["retry"]
    waits = wait_times((results_dir / "figure11_breakdown.txt").read_text())

    # Proportions are well-formed at every conflict rate.
    for label in propose:
        total = propose[label] + deliver[label] + retry[label]
        assert total == pytest.approx(1.0, abs=1e-6)
    # With no conflicts the proposal phase dominates and delivery is negligible.
    assert propose["0%"] > 0.8
    assert deliver["0%"] < 0.2
    # Under conflicts, delivery takes a visibly larger share than at 0%.
    assert deliver["50%"] > deliver["0%"]
    # 11b has a wait time per site at every conflict rate of 11a.
    assert set(waits) == set(EC2_SHORT_LABELS.values())
    assert all(set(values) == set(propose) for values in waits.values())

    # Wait-condition time grows with the conflict rate (averaged over sites).
    def mean_wait(label: str) -> float:
        return sum(values[label] for values in waits.values()) / len(waits)

    assert mean_wait("30%") >= mean_wait("2%")
