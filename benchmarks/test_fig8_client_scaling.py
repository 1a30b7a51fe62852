"""Figure 8: latency while growing the number of connected clients, on the
committed record.

Checks PAPER.md's Figure 8 line: at 10 % conflicts every system stays in
the WAN round-trip regime at light load, and latency climbs once the CPU
saturates.
"""

from __future__ import annotations


def test_figure8_client_scaling(committed_series):
    series = committed_series("figure8_client_scaling")
    caesar = series["caesar"]
    epaxos = series["epaxos"]
    m2paxos = series["m2paxos"]

    for values in series.values():
        assert set(values) == {"5", "50", "250", "500"}
        assert all(value > 0 for value in values.values())
    # Latency grows with load for every system once the CPU model saturates.
    assert caesar["500"] >= caesar["5"] * 0.9
    assert epaxos["500"] >= epaxos["5"] * 0.9
    assert m2paxos["500"] >= m2paxos["5"] * 0.9
    # At light load every protocol is within the WAN round-trip regime (< 400 ms).
    for values in (caesar, epaxos, m2paxos):
        assert values["5"] < 400.0
