#!/usr/bin/env python3
"""Geo-replicated key-value store under a realistic conflicting workload.

This example reproduces, at small scale, the scenario the paper's
introduction motivates: a geo-replicated service where clients at five sites
issue update commands, some of which touch shared (conflicting) keys.  It
runs the same workload against CAESAR and EPaxos and prints the per-site
average latency and the fraction of commands that needed a slow decision —
the comparison at the heart of the paper.

Run it with::

    python examples/geo_replicated_store.py [conflict_percent]
"""

from __future__ import annotations

import sys

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.report import format_series
from repro.sim.topology import EC2_SHORT_LABELS, EC2_SITES


def main() -> None:
    conflict_percent = float(sys.argv[1]) if len(sys.argv) > 1 else 30.0
    conflict_rate = conflict_percent / 100.0

    latency_series = {}
    slow_ratio = {}
    for protocol in ("caesar", "epaxos"):
        print(f"running {protocol} with {conflict_percent:.0f}% conflicting commands ...")
        result = run_experiment(ExperimentConfig(
            protocol=protocol, conflict_rate=conflict_rate, clients_per_site=10,
            duration_ms=8000.0, warmup_ms=2000.0, seed=21))
        latency_series[protocol] = {
            EC2_SHORT_LABELS[site]: result.site_mean_latency(site) for site in EC2_SITES}
        slow_ratio[protocol] = result.slow_path_ratio or 0.0
        assert result.consistency_violations == 0

    print()
    print(format_series(
        f"Mean latency (ms) per site at {conflict_percent:.0f}% conflicts",
        latency_series, x_label="site"))
    print()
    for protocol, ratio in slow_ratio.items():
        print(f"{protocol:>8}: {ratio * 100.0:5.1f}% of commands needed a slow decision")
    print()
    print("CAESAR keeps (almost) every decision on the fast path by agreeing on a")
    print("delivery timestamp instead of on identical dependency sets; EPaxos falls")
    print("back to its slow path whenever a quorum disagrees on dependencies.")


if __name__ == "__main__":
    main()
