"""Figure 9 (bottom): peak throughput vs. conflict percentage, batching off
and on, on the committed record.

Checks PAPER.md's Figure 9 line, batching half: batching raises every
protocol's peak, the multi-leader protocols still beat the single leader,
and with batching off CAESAR overtakes EPaxos at 30 % conflicts.  Mencius
has no batching row, as in the paper.
"""

from __future__ import annotations


def test_figure9_throughput_with_batching(committed_series):
    series = committed_series("figure9_throughput_batching")

    def half(prefix: str) -> dict:
        return {label[len(prefix):]: points for label, points in series.items()
                if label.startswith(prefix)}

    without = half("no-batching ")
    with_batching = half("batching ")

    assert set(without) == set(with_batching) == {"caesar", "epaxos", "multipaxos"}
    # Batching raises every protocol's peak throughput (the simulated CPU
    # model gains far less than the paper's hardware).
    for protocol in ("caesar", "epaxos", "multipaxos"):
        assert with_batching[protocol]["0%"] > without[protocol]["0%"] * 1.2, protocol
    # The multi-leader protocols still beat the single leader with batching on.
    assert with_batching["caesar"]["10%"] > with_batching["multipaxos"]["10%"]
    # The crossover without batching: CAESAR outperforms EPaxos at 30% conflicts.
    assert without["caesar"]["30%"] > without["epaxos"]["30%"]
