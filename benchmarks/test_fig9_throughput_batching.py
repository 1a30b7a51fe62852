"""Figure 9 (bottom): peak throughput vs. conflict percentage, batching enabled.

Paper reference: with network batching every protocol's absolute throughput
rises substantially (CAESAR exceeds 320k commands/second on the authors'
hardware); the relative trend with conflicts matches the no-batching case
except that EPaxos catches back up at very high conflict rates because it
does not pay CAESAR's wait condition.  Mencius is omitted, as in the paper,
because the authors' Mencius implementation does not support batching.
"""

from __future__ import annotations

from repro.harness.figures import figure9_throughput_batching


def test_figure9_throughput_with_batching(results_dir):
    result = figure9_throughput_batching()
    result.write(results_dir)

    without = result.extra["without"]
    with_batching = result.extra["with_batching"]

    # Batching raises every protocol's peak throughput (paper: ~an order of
    # magnitude on real hardware; the simulated CPU model is more modest).
    for protocol in ("caesar", "epaxos", "multipaxos"):
        assert (with_batching.series[protocol]["0%"]
                > without.series[protocol]["0%"] * 1.2), protocol
    # The multi-leader protocols still beat the single leader with batching on.
    assert (with_batching.series["caesar"]["10%"]
            > with_batching.series["multipaxos"]["10%"])
