"""Golden digests of delivery order and loop-breaking edits.

Delivery decides the execution order *and* edits predecessor masks (BREAKLOOP
clears edges on entries that are already delivered; ``RecoveryReply`` and
``catchup_supply`` read them back), so an "equivalent" rewrite of
:class:`~repro.core.delivery.DeliveryManager` that reorders two independent
commands, or skips an edit nobody executes on, changes observable state
without failing any consistency check.  This test pins both: a sha256 over
every replica's execution log and every history entry's ``(command id,
sorted predecessor ids, timestamp)`` for one small 100 %-conflict run and one
crash+recovery run.  Nothing in it depends on how ids are numbered, so the
digest holds across a change of interner (node-wide or per key).

``tests/data/delivery_golden.json`` was written by the node-wide-interner
history, before each key got its own interner (``PYTHONPATH=<that
checkout>/src python tests/test_delivery_golden.py``, this file copied into
the checkout); the index-based digest it replaced had been written by the
scan-based manager of commit d1ad494, before delivery was indexed, and both
trees agreed on it.  Running the module as a script prints the digests of
whatever ``src`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiment import (ExperimentConfig, attach_clients,
                                      build_experiment_cluster)
from repro.metrics.collector import MetricsCollector
from repro.sim.failures import ScheduledCrash
from repro.sim.network import NetworkConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "delivery_golden.json"

#: name -> (experiment config, crash time of the last replica or ``None``).
RUNS = {
    "hot": (ExperimentConfig(protocol="caesar", conflict_rate=1.0, clients_per_site=20,
                             warmup_ms=200.0, duration_ms=600.0, drain_ms=3000.0, seed=7,
                             network=NetworkConfig(jitter_ms=3.0)), None),
    "crash": (ExperimentConfig(protocol="caesar", conflict_rate=0.3, clients_per_site=4,
                               open_loop=True, arrival_rate_per_client=20.0,
                               warmup_ms=0.0, duration_ms=3000.0, drain_ms=5000.0, seed=11,
                               network=NetworkConfig(jitter_ms=3.0), recovery=True),
              1200.0),
}


def run_digest(name: str) -> dict:
    """Drive one pinned run; its digest plus the counts that show it is not vacuous."""
    config, crash_at_ms = RUNS[name]
    cluster = build_experiment_cluster(config)
    pool = attach_clients(cluster, config, MetricsCollector(warmup_ms=config.warmup_ms))
    if crash_at_ms is not None:
        cluster.crash_injector.schedule(
            ScheduledCrash(node_id=cluster.size - 1, crash_at_ms=crash_at_ms))
    cluster.start()
    pool.start_all()
    cluster.run(config.warmup_ms + config.duration_ms)
    pool.stop_all()
    cluster.run(config.drain_ms)

    digest = hashlib.sha256()
    for replica in cluster.replicas:
        digest.update(f"replica {replica.node_id}\n".encode())
        for command in replica.execution_log:
            digest.update(f"x {command.command_id}\n".encode())
        for entry in sorted(replica.history.entries(), key=lambda e: e.command_id):
            digest.update(f"h {entry.command_id} {sorted(entry.predecessors)} "
                          f"{entry.timestamp.counter}.{entry.timestamp.node_id}\n".encode())
    return {"sha256": digest.hexdigest(),
            "executed": [len(replica.execution_log) for replica in cluster.replicas],
            "pending": [replica.delivery.pending_count() for replica in cluster.replicas]}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_delivery_matches_golden_digest(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    assert min(golden["executed"]) > 100, "the pinned run must execute real work"
    assert run_digest(name) == golden


if __name__ == "__main__":
    print(json.dumps({name: run_digest(name) for name in sorted(RUNS)}, indent=2))
