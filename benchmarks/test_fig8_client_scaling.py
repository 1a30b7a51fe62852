"""Figure 8: latency per site while growing the number of connected clients.

Paper reference: with 10% conflicts, CAESAR's latency stays steady as clients
are added and it saturates latest; EPaxos' execution (dependency-graph
analysis) slows it down as load grows; M2Paxos stops scaling earlier because
of its forwarding mechanism.
"""

from __future__ import annotations

from repro.harness.figures import figure8_client_scaling


def test_figure8_client_scaling(results_dir):
    result = figure8_client_scaling()
    result.write(results_dir)

    caesar = result.series["caesar"]
    epaxos = result.series["epaxos"]
    m2paxos = result.series["m2paxos"]

    # Latency grows with load for every system once the CPU model saturates.
    assert caesar[500] >= caesar[5] * 0.9
    assert epaxos[500] >= epaxos[5] * 0.9
    assert m2paxos[500] >= m2paxos[5] * 0.9
    # At light load every protocol is within the WAN round-trip regime (< 400 ms).
    for series in (caesar, epaxos, m2paxos):
        assert series[5] < 400.0
