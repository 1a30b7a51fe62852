"""Figure 6: average latency vs. conflict percentage, on the committed record.

Checks PAPER.md's Figure 6 line: CAESAR pays one more fast-quorum node than
EPaxos at 0 %, stays nearly flat as conflicts grow, and M2Paxos degrades.
The record does not reproduce the line's crossover: EPaxos is below CAESAR
at every rate, 100 % included (ROADMAP item 1).
"""

from __future__ import annotations


def test_figure6_latency_vs_conflicts(committed_series):
    series = committed_series("figure6_latency_vs_conflicts")
    caesar = series["caesar"]
    epaxos = series["epaxos"]
    m2paxos = series["m2paxos"]

    assert set(series) == {"caesar", "epaxos", "m2paxos"}
    assert all(value > 0 for values in series.values() for value in values.values())
    # CAESAR pays one extra quorum node at 0% conflicts.
    assert caesar["0%"] > epaxos["0%"]
    # CAESAR's latency stays nearly flat up to 50% conflicts.
    assert caesar["30%"] <= caesar["0%"] * 1.35
    assert caesar["50%"] <= caesar["0%"] * 1.35
    # M2Paxos degrades with conflicts because of ownership forwarding.
    assert m2paxos["30%"] > m2paxos["0%"] * 1.15
    # Every protocol suffers under total order (100% conflicts).
    assert caesar["100%"] >= caesar["0%"]
    assert epaxos["100%"] >= epaxos["0%"]
