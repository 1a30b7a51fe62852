"""Ablation: CAESAR with and without the wait condition, on the committed
record.

Checks PAPER.md's "Why it helps" line under the wait condition (Figure 3,
lines 4–8): without the wait, an acceptor that already holds a conflicting
higher-timestamp command must reject the proposal, which turns fast
decisions into slow ones the way EPaxos' equal-dependencies rule does.  The
:func:`repro.harness.figures.ablation_wait_condition` sweep runs CAESAR with
the wait condition on and off.  That the wait-off runs still order every
conflicting pair consistently is checked in memory by
``test_figure_slice.py``: the record holds no violation count.
"""

from __future__ import annotations


def test_wait_condition_ablation(committed_series):
    series = committed_series("ablation_wait_condition")
    wait_on = series["slow% wait-on"]
    wait_off = series["slow% wait-off"]

    assert set(wait_on) == set(wait_off) == {"10%", "30%", "50%"}
    # Disabling the wait condition produces (weakly) more slow decisions at
    # every conflict rate, and strictly more under heavy conflicts.
    for key in wait_on:
        assert wait_off[key] >= wait_on[key]
    assert wait_off["50%"] > wait_on["50%"]
