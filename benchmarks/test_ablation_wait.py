"""Ablation: CAESAR with and without the wait condition.

The wait condition is the paper's key mechanism (Section IV-A): without it,
an acceptor that received a conflicting higher-timestamp command first must
reject the proposal, which turns fast decisions into slow ones exactly the
way EPaxos' equal-dependency rule does.  The
:func:`repro.harness.figures.ablation_wait_condition` sweep disables the
wait condition (the acceptor NACKs immediately instead of parking the
proposal) and measures the effect on the slow-path share and on latency.
"""

from __future__ import annotations

from repro.harness.figures import ablation_wait_condition


def test_wait_condition_ablation(results_dir):
    result = ablation_wait_condition()
    result.write(results_dir)

    slow_series = result.extra["slow"]
    assert result.extra["consistency_violations"] == 0

    # Disabling the wait condition produces (weakly) more slow decisions at
    # every conflict rate, and strictly more under heavy conflicts.
    for key in slow_series["wait-on"]:
        assert slow_series["wait-off"][key] >= slow_series["wait-on"][key]
    assert slow_series["wait-off"]["50%"] > slow_series["wait-on"]["50%"]
