"""Figure 9 (batching disabled): peak throughput vs. conflict percentage, on
the committed record.

Checks PAPER.md's Figure 9 line: the multi-leader protocols exceed the
single Multi-Paxos leader, Multi-Paxos and Mencius ignore the conflict rate,
and CAESAR overtakes EPaxos once conflicts reach 30 % — the abstract's
"outperforms EPaxos with 30 % conflicting requests".  Only the order is
asserted: the record's ratio at 30 % is not the abstract's.
"""

from __future__ import annotations


def test_figure9_throughput(committed_series):
    series = committed_series("figure9_throughput")
    caesar = series["caesar"]
    epaxos = series["epaxos"]
    multipaxos = series["multipaxos"]
    mencius = series["mencius"]

    # The single designated leader is the throughput bottleneck.
    assert 0 < multipaxos["0%"] < caesar["0%"]
    assert multipaxos["0%"] < epaxos["0%"]
    # Multi-Paxos and Mencius are conflict-oblivious: identical numbers everywhere.
    assert len(set(multipaxos.values())) == 1
    assert len(set(mencius.values())) == 1
    # EPaxos loses more of its 0%-throughput than CAESAR by 30% conflicts.
    caesar_retention = caesar["30%"] / caesar["0%"]
    epaxos_retention = epaxos["30%"] / epaxos["0%"]
    assert caesar_retention > epaxos_retention
    # The crossover: CAESAR outperforms EPaxos at 30% and 50% conflicts.
    assert caesar["30%"] > epaxos["30%"]
    assert caesar["50%"] > epaxos["50%"]
