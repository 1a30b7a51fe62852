"""Figure 10: percentage of commands decided on the slow path, on the
committed record.

Checks PAPER.md's Figure 10 line: EPaxos' slow-path share grows with the
conflict rate while CAESAR's stays several times lower, because the wait
condition rejects a proposal only when its timestamp is really invalid.
"""

from __future__ import annotations


def test_figure10_slow_paths(committed_series):
    series = committed_series("figure10_slow_paths")
    caesar = series["caesar"]
    epaxos = series["epaxos"]

    # No conflicts: neither protocol needs the slow path.
    assert epaxos["0%"] <= 1.0
    assert caesar["0%"] <= 1.0
    # EPaxos' slow-path share grows with the conflict rate.
    assert epaxos["50%"] > epaxos["10%"] >= epaxos["0%"]
    # CAESAR takes several times fewer slow decisions at moderate conflict rates.
    assert caesar["30%"] <= epaxos["30%"] / 2.0
    assert caesar["50%"] <= epaxos["50%"] / 2.0
