"""Figure 9 (batching disabled): peak throughput vs. conflict percentage.

Paper reference: the multi-leader protocols far exceed single-leader
Multi-Paxos; EPaxos loses more throughput than CAESAR as conflicts grow (24%
vs 17% already at 10% in the paper), so a crossover in CAESAR's favour
appears at moderate conflict rates; Multi-Paxos and Mencius are oblivious to
the conflict rate.
"""

from __future__ import annotations

from repro.harness.figures import figure9_throughput


def test_figure9_throughput(results_dir):
    result = figure9_throughput()
    result.write(results_dir)

    caesar = result.series["caesar"]
    epaxos = result.series["epaxos"]
    multipaxos = result.series["multipaxos"]
    mencius = result.series["mencius"]

    # The single designated leader is the throughput bottleneck (paper Figure 9).
    assert multipaxos["0%"] < caesar["0%"]
    assert multipaxos["0%"] < epaxos["0%"]
    # Multi-Paxos and Mencius are conflict-oblivious: identical numbers everywhere.
    assert len(set(multipaxos.values())) == 1
    assert len(set(mencius.values())) == 1
    # EPaxos loses more of its 0%-throughput than CAESAR by 30% conflicts.
    caesar_retention = caesar["30%"] / caesar["0%"]
    epaxos_retention = epaxos["30%"] / epaxos["0%"]
    assert caesar_retention > epaxos_retention
