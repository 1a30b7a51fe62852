#!/usr/bin/env python3
"""Failure and recovery: what happens when a replica crashes mid-run.

This example reproduces the scenario of the paper's Figure 12 at small scale:
closed-loop clients drive a five-site CAESAR cluster, one replica is killed
partway through, its clients time out and reconnect to the surviving
replicas, and CAESAR's per-command recovery finalizes the commands the dead
leader left behind.  The crash is part of the experiment's config
(``crash_at_ms`` crashes the last replica, Mumbai's), so the run is an
ordinary :func:`~repro.harness.experiment.run_experiment`, as each of
Figure 12's cells is.  The script prints a per-second throughput timeline so
the dip and the recovery are visible, plus the recovery statistics.

Run it with::

    python examples/failure_recovery.py
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentConfig, run_experiment

CRASH_AT_MS = 8000.0
TOTAL_MS = 20000.0


def main() -> None:
    config = ExperimentConfig(protocol="caesar", conflict_rate=0.02, clients_per_site=10,
                              duration_ms=TOTAL_MS, warmup_ms=0.0, drain_ms=1000.0, seed=33,
                              recovery=True, crash_at_ms=CRASH_AT_MS)
    result = run_experiment(config)
    cluster = result.cluster
    crashed_site = cluster.topology.sites[-1]

    print(f"CAESAR, 50 closed-loop clients, crash of {crashed_site} at "
          f"t={CRASH_AT_MS / 1000:.0f}s\n")
    print("time  throughput (commands/second)")
    for start, rate in result.metrics.timeline(end_ms=TOTAL_MS - 1):
        marker = "  <- crash" if start == CRASH_AT_MS else ""
        print(f"{start / 1000.0:3.0f}s  {rate:7.1f} {'#' * int(rate / 20)}{marker}")

    live = [replica for replica in cluster.replicas if not replica.crashed]
    recoveries = sum(replica.stats.recoveries_started for replica in live)
    reconnects = sum(client.timeouts for client in result.pool.clients)
    print()
    print(f"recovery attempts started by surviving replicas: {recoveries}")
    print(f"clients that timed out and reconnected:          {reconnects}")
    print(f"consistency violations across survivors:         {result.consistency_violations}")
    print()
    print("Throughput dips while the crashed site's clients are stalled, then")
    print("returns once they reconnect; commands left pending by the crashed")
    print("leader are finalized by the surviving replicas' RECOVERY phase.")


if __name__ == "__main__":
    main()
