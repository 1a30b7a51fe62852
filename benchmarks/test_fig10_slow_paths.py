"""Figure 10: percentage of commands decided via the slow path.

Paper reference: EPaxos' slow-path share tracks the conflict percentage,
while CAESAR's grows far more slowly — more than 3x (up to 70%) fewer slow
decisions at 30% conflicts — thanks to the wait condition, which only rejects
a proposal when its timestamp is genuinely invalid.
"""

from __future__ import annotations

from repro.harness.figures import figure10_slow_paths


def test_figure10_slow_paths(results_dir):
    result = figure10_slow_paths()
    result.write(results_dir)

    caesar = result.series["caesar"]
    epaxos = result.series["epaxos"]

    # No conflicts: neither protocol needs the slow path.
    assert epaxos["0%"] <= 1.0
    assert caesar["0%"] <= 1.0
    # EPaxos' slow-path share grows with the conflict rate.
    assert epaxos["50%"] > epaxos["10%"] >= epaxos["0%"]
    # CAESAR takes several times fewer slow decisions at moderate conflict rates.
    assert caesar["30%"] <= epaxos["30%"] / 2.0
    assert caesar["50%"] <= epaxos["50%"] / 2.0
