"""Figure 7: Multi-Paxos (near/far leader), Mencius and CAESAR per-site
latency, on the committed record.

Checks PAPER.md's Figure 7 line: Mencius runs at the pace of the slowest
node, a Mumbai leader makes Multi-Paxos slower than an Irish one everywhere
but Mumbai, and CAESAR at 0 % is the fastest of the group at every site
except a Multi-Paxos leader's own.
"""

from __future__ import annotations

from repro.sim.topology import EC2_SHORT_LABELS


def test_figure7_single_leader_comparison(committed_series):
    series = committed_series("figure7_single_leader_comparison")
    caesar = series["caesar-0%"]
    mencius = series["mencius"]
    near = series["multipaxos-IR"]
    far = series["multipaxos-IN"]

    assert set(series) == {"multipaxos-IR", "multipaxos-IN", "mencius", "caesar-0%"}
    for values in series.values():
        assert set(values) == set(EC2_SHORT_LABELS.values())

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
    # Away from the two leaders' sites, CAESAR beats every single-leader system.
    for site in ("VA", "OH", "DE"):
        assert caesar[site] < min(near[site], far[site], mencius[site]), site
