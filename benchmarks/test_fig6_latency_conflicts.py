"""Figure 6: average latency per site vs. conflict percentage.

Paper reference: CAESAR's latency stays nearly constant from 0% to 50%
conflicts while EPaxos and M2Paxos degrade; at 0% CAESAR is ~18% slower than
EPaxos (one extra fast-quorum node) and ~50% slower from Mumbai.
"""

from __future__ import annotations

from repro.harness.figures import figure6_latency_vs_conflicts


def test_figure6_latency_vs_conflicts(results_dir):
    result = figure6_latency_vs_conflicts()
    result.write(results_dir)

    caesar = result.series["caesar"]
    epaxos = result.series["epaxos"]
    m2paxos = result.series["m2paxos"]

    # CAESAR pays one extra quorum node at 0% conflicts (paper: ~18% slower).
    assert caesar["0%"] > epaxos["0%"]
    # CAESAR's latency stays nearly flat up to 50% conflicts (paper's headline).
    assert caesar["50%"] <= caesar["0%"] * 1.35
    # M2Paxos degrades with conflicts because of ownership forwarding.
    assert m2paxos["30%"] > m2paxos["0%"] * 1.15
    # Every protocol suffers under total order (100% conflicts).
    assert caesar["100%"] >= caesar["0%"]
    assert epaxos["100%"] >= epaxos["0%"]
