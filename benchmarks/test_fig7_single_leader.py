"""Figure 7: Multi-Paxos (near/far leader), Mencius and CAESAR per-site latency.

Paper reference: Mencius performs as the slowest node (~60% slower than
CAESAR on average); Multi-Paxos with a far leader (Mumbai) is much slower
than with a well-placed leader (Ireland); CAESAR at 0% conflicts is the
fastest of the group at every site except the leader's own.
"""

from __future__ import annotations

from repro.harness.figures import figure7_single_leader_comparison


def test_figure7_single_leader_comparison(results_dir):
    result = figure7_single_leader_comparison()
    result.write(results_dir)

    caesar = result.series["caesar-0%"]
    mencius = result.series["mencius"]
    near = result.series["multipaxos-IR"]
    far = result.series["multipaxos-IN"]

    caesar_mean = sum(caesar.values()) / len(caesar)
    mencius_mean = sum(mencius.values()) / len(mencius)
    near_mean = sum(near.values()) / len(near)
    far_mean = sum(far.values()) / len(far)

    # Mencius tracks the slowest node: clearly slower than CAESAR on average.
    assert mencius_mean > caesar_mean * 1.3
    # Moving the Multi-Paxos leader from Ireland to Mumbai hurts every other site.
    assert far_mean > near_mean
    for site in ("VA", "OH", "DE", "IE"):
        assert far[site] > near[site]
    # With the leader in Mumbai, Mumbai's own clients are the least penalised site.
    assert far["IN"] == min(far.values())
