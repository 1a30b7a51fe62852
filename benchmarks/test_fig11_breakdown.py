"""Figure 11: CAESAR's internal latency breakdown and wait-condition times.

Paper reference: (a) with no conflicts almost all latency is the proposal
phase and delivery is negligible; as conflicts grow, delivery becomes a major
share because stable commands wait for their conflicting predecessors.
(b) The average wait-condition time grows with the conflict percentage, and
far-away sites (which propose with lower timestamps) wait the most.
"""

from __future__ import annotations

import pytest

from repro.harness.figures import figure11_breakdown


def test_figure11_breakdown_and_wait_times(results_dir):
    result = figure11_breakdown()
    result.write(results_dir)

    propose = result.series["propose"]
    deliver = result.series["deliver"]
    retry = result.series["retry"]
    wait_times = result.extra["wait_times"]

    # Proportions are well-formed at every conflict rate.
    for label in propose:
        total = propose[label] + deliver[label] + retry[label]
        assert total == pytest.approx(1.0, abs=1e-6)
    # With no conflicts the proposal phase dominates and delivery is negligible.
    assert propose["0%"] > 0.8
    assert deliver["0%"] < 0.2
    # Under conflicts, delivery takes a visibly larger share than at 0%.
    assert deliver["50%"] > deliver["0%"]
    # Wait-condition time grows with the conflict rate (averaged over sites).
    def mean_wait(label: str) -> float:
        return sum(values[label] for values in wait_times.values()) / len(wait_times)

    assert mean_wait("30%") >= mean_wait("2%")
