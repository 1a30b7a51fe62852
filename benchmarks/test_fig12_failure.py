"""Figure 12: throughput timeline when one replica crashes mid-run.

Paper reference: after the crash the throughput dips for a few seconds while
the crashed site's clients time out and reconnect, then returns to normal;
both CAESAR and EPaxos keep the system available (no unavailability window
beyond the client-reconnection dip).
"""

from __future__ import annotations

from repro.harness.figures import figure12_failure_timeline


def test_figure12_failure_timeline(results_dir):
    result = figure12_failure_timeline()
    result.write(results_dir)

    for protocol in ("caesar", "epaxos"):
        series = result.series[protocol]
        before = sum(series[f"{t}s"] for t in range(4, 8)) / 4.0
        dip = min(series["8s"], series["9s"], series["10s"])
        after = sum(series[f"{t}s"] for t in range(15, 19)) / 4.0
        # Throughput is nonzero before the crash, dips when it happens, and
        # recovers once clients reconnect (availability is preserved).
        assert before > 0
        assert dip < before
        assert after > dip
        assert after > before * 0.5
