#!/usr/bin/env python3
"""Compare all five protocols on the same geo-replicated workload.

Runs CAESAR, EPaxos, M2Paxos, Mencius and Multi-Paxos (leader in Ireland) on
identical workloads at a few conflict rates, and prints a latency table and a
peak-throughput table — a miniature version of the paper's Figures 6, 7 and 9
in one script.

Run it with::

    python examples/protocol_comparison.py
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.report import format_series
from repro.runtime.costs import throughput_cost_model
from repro.sim.topology import EC2_SITES

CONFLICT_RATES = (0.0, 0.10, 0.30)
PROTOCOLS = {
    "caesar": {},
    "epaxos": {},
    "m2paxos": {},
    "mencius": {},
    "multipaxos-IR": {"leader_id": EC2_SITES.index("ireland")},
}


def protocol_name(label: str) -> str:
    return label.split("-")[0]


def main() -> None:
    latency = {label: {} for label in PROTOCOLS}
    throughput = {label: {} for label in PROTOCOLS}

    for label, options in PROTOCOLS.items():
        for rate in CONFLICT_RATES:
            print(f"running {label} at {int(rate * 100)}% conflicts ...")
            latency_result = run_experiment(ExperimentConfig(
                protocol=protocol_name(label), conflict_rate=rate, clients_per_site=10,
                duration_ms=6000.0, warmup_ms=1500.0, seed=42,
                protocol_options=dict(options)))
            throughput_result = run_experiment(ExperimentConfig(
                protocol=protocol_name(label), conflict_rate=rate, clients_per_site=40,
                duration_ms=4000.0, warmup_ms=1000.0, seed=43,
                cost_model=throughput_cost_model(), protocol_options=dict(options)))
            key = f"{int(rate * 100)}%"
            overall = latency_result.overall_latency
            latency[label][key] = overall.mean if overall else None
            throughput[label][key] = throughput_result.throughput_per_second
            assert latency_result.consistency_violations == 0
            assert throughput_result.consistency_violations == 0

    print()
    print(format_series("Mean latency (ms) across all sites", latency, x_label="conflict"))
    print()
    print(format_series("Peak throughput (commands/second, scaled CPU model)", throughput,
                        x_label="conflict"))
    print()
    print("Expected shape (matching the paper): the multi-leader protocols beat the")
    print("single leader; CAESAR's latency stays flat as conflicts grow while the")
    print("dependency/ownership-based protocols degrade; Multi-Paxos throughput is")
    print("capped by its leader regardless of the conflict rate.")


if __name__ == "__main__":
    main()
