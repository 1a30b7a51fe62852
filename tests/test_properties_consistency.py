"""Property-based tests of Generalized-Consensus invariants across protocols.

Hypothesis generates random workloads (command interleavings, conflict
patterns, submission sites and times) and the tests check, for every
protocol, the core correctness properties the paper's Section III specifies:

* **Nontriviality** — only proposed commands are executed;
* **Liveness** — every proposed command is eventually executed everywhere;
* **Consistency** — any two replicas execute conflicting commands in the same
  relative order (equivalently: all state machines converge);
* **Exactly-once execution** on every replica.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.epaxos import EPaxosReplica
from repro.baselines.m2paxos import M2PaxosReplica
from repro.baselines.mencius import MenciusReplica
from repro.baselines.multipaxos import MultiPaxosReplica
from repro.consensus.command import Command
from repro.core.caesar import CaesarReplica
from tests.conftest import build_replicas, ignore, order_violations

#: A workload step: (origin replica, key index, delay before submission in ms).
workload_steps = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.floats(0.0, 120.0)),
    min_size=1, max_size=25)


REPLICA_CLASSES = {"caesar": CaesarReplica, "epaxos": EPaxosReplica,
                   "multipaxos": MultiPaxosReplica, "mencius": MenciusReplica,
                   "m2paxos": M2PaxosReplica}


def executed_everywhere(replicas, ids):
    """Cheap-gated completion predicate: every replica executed every id.

    The per-replica execution counter is O(1) and reaches ``len(ids)`` only
    when a replica may have executed everything (exactly-once + nontriviality
    bound it from above), so the expensive exact membership scan runs only
    near completion instead of after every event.
    """
    need = len(set(ids))

    def predicate():
        for replica in replicas:
            if replica.commands_executed < need:
                return False
        return all(r.has_executed(cid) for r in replicas for cid in ids)

    return predicate


def run_workload(protocol: str, steps, seed: int = 1, **options):
    """Submit the generated workload and run until every command is executed everywhere."""
    sim, _, replicas = build_replicas(REPLICA_CLASSES[protocol], seed=seed, jitter_ms=2.0,
                                      **options)
    submitted = []
    for index, (origin, key_index, delay) in enumerate(steps):
        command = Command(command_id=(origin, index), key=f"key-{key_index}",
                          operation="put", value=f"v{index}", origin=origin)
        submitted.append(command)
        sim.schedule(delay, lambda replica=replicas[origin], c=command: replica.submit(c, ignore))
    ids = [c.command_id for c in submitted]
    finished = sim.run_until(executed_everywhere(replicas, ids),
                             deadline=300000, check_every=8)
    return replicas, submitted, finished


def check_invariants(replicas, submitted, finished):
    submitted_ids = {c.command_id for c in submitted}
    assert finished, "liveness violated: some command never executed everywhere"
    for replica in replicas:
        executed_ids = [c.command_id for c in replica.execution_log]
        # Nontriviality: nothing executed that was not submitted.
        assert set(executed_ids) <= submitted_ids
        # Exactly once.
        assert len(executed_ids) == len(set(executed_ids)) == len(submitted_ids)
    # Consistency: conflicting commands ordered identically, state machines converge.
    assert order_violations(replicas) == []
    snapshots = [r.state_machine.snapshot() for r in replicas]
    assert all(snapshot == snapshots[0] for snapshot in snapshots)


COMMON_SETTINGS = dict(max_examples=12, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


class TestCaesarProperties:
    @given(steps=workload_steps, seed=st.integers(0, 2**16))
    @settings(**COMMON_SETTINGS)
    def test_random_workloads_satisfy_generalized_consensus(self, steps, seed):
        replicas, submitted, finished = run_workload("caesar", steps, seed)
        check_invariants(replicas, submitted, finished)

    @given(steps=workload_steps)
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_wait_condition_disabled_still_consistent(self, steps):
        """The ablation (immediate NACK instead of waiting) must stay correct."""
        replicas, submitted, finished = run_workload("caesar", steps, 3, wait_condition=False)
        check_invariants(replicas, submitted, finished)


class TestBaselineProperties:
    @given(steps=workload_steps, seed=st.integers(0, 2**16))
    @settings(**COMMON_SETTINGS)
    def test_epaxos_random_workloads(self, steps, seed):
        replicas, submitted, finished = run_workload("epaxos", steps, seed)
        check_invariants(replicas, submitted, finished)

    @given(steps=workload_steps)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_multipaxos_random_workloads(self, steps):
        replicas, submitted, finished = run_workload("multipaxos", steps)
        check_invariants(replicas, submitted, finished)

    @given(steps=workload_steps)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mencius_random_workloads(self, steps):
        replicas, submitted, finished = run_workload("mencius", steps)
        check_invariants(replicas, submitted, finished)

    @given(steps=workload_steps)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_m2paxos_random_workloads(self, steps):
        replicas, submitted, finished = run_workload("m2paxos", steps)
        check_invariants(replicas, submitted, finished)
