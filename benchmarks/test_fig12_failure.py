"""Figure 12: throughput over time when one replica crashes mid-run, on the
committed record.

Checks PAPER.md's Figure 12 line: after the crash at t = 8 s both CAESAR and
EPaxos dip while the crashed site's clients reconnect, then recover; the
system stays available.
"""

from __future__ import annotations


def test_figure12_failure_timeline(committed_series):
    series = committed_series("figure12_failure_timeline")

    for protocol in ("caesar", "epaxos"):
        timeline = series[protocol]
        before = sum(timeline[f"{t}s"] for t in range(4, 8)) / 4.0
        dip = min(timeline["8s"], timeline["9s"], timeline["10s"])
        after = sum(timeline[f"{t}s"] for t in range(15, 19)) / 4.0
        # Throughput is nonzero before the crash, dips when it happens, and
        # recovers once clients reconnect (availability is preserved).
        assert before > 0
        assert dip < before
        assert after > dip
        assert after > before * 0.5
