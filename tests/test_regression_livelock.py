"""Deterministic regression tests for ownership/contention livelocks.

Hypothesis found a genuine liveness bug in the M²Paxos implementation: three
replicas submitting a command for the same key at the same instant all start
an ownership acquisition at the same epoch, refuse each other, and retry in
lockstep forever while a deposed owner's in-flight accept round is silently
dropped — so one command never executes anywhere.  The falsifying example is
pinned here *without* Hypothesis so the exact interleaving is replayed on
every run, together with the symmetric cases for the other protocols.
"""

from __future__ import annotations

import pytest

from repro.baselines.m2paxos import M2PaxosReplica
from repro.consensus.command import Command
from test_properties_consistency import check_invariants, run_workload
from tests.conftest import ignore, run_until_executed

#: The Hypothesis falsifying example: replicas 0, 1 and 2 each submit a
#: command for key-0 at t=0, producing a three-way ownership fight.
PINNED_STEPS = [(0, 0, 0.0), (1, 0, 0.0), (2, 0, 0.0)]


class TestPinnedM2PaxosLivelock:
    def test_three_way_ownership_contention_converges(self):
        replicas, submitted, finished = run_workload("m2paxos", PINNED_STEPS)
        check_invariants(replicas, submitted, finished)

    def test_contention_resolved_by_backoff_not_starvation(self):
        """The losers must fall back to forwarding, not retry forever."""
        replicas, _, finished = run_workload("m2paxos", PINNED_STEPS)
        assert finished
        acquisitions = sum(r.stats.acquisitions for r in replicas)
        # Convergence: bounded number of acquisition rounds, not an unbounded
        # retry storm (the livelocked implementation kept acquiring).
        assert acquisitions <= 3 * len(PINNED_STEPS)
        # Exactly one replica ends up owning the contended key everywhere.
        owners = {r.owners.get("key-0") for r in replicas if isinstance(r, M2PaxosReplica)}
        assert len(owners) == 1

    def test_five_way_contention_converges(self):
        steps = [(origin, 0, 0.0) for origin in range(5)]
        replicas, submitted, finished = run_workload("m2paxos", steps)
        check_invariants(replicas, submitted, finished)

    def test_staggered_contention_converges(self):
        """Requests arriving one network-delay apart also converge."""
        steps = [(0, 0, 0.0), (1, 0, 40.0), (2, 0, 80.0), (0, 0, 120.0)]
        replicas, submitted, finished = run_workload("m2paxos", steps)
        check_invariants(replicas, submitted, finished)


class TestPinnedSplitVoteForwardCycle:
    """Regression for the split-vote forwarding cycle.

    With three-plus contenders at the same epoch the grant vote can split so
    that *nobody* wins ownership, while each loser learns a different
    "current owner" from refusal gossip.  Two replicas then believe the
    other one owns the key and bounce ForwardCommand between themselves
    forever (found by randomized stress after the original livelock fix).
    The hop limit in ``_on_forward`` must break the cycle by falling back to
    a fresh acquisition.
    """

    # Stress-discovered interleaving: four-way contention on key-0 whose
    # epoch-1 vote splits 2/2 between replicas 0 and 2.
    STEPS = [(4, 1, 23.483964414289474), (1, 1, 37.93099633529382),
             (0, 1, 26.11326531493), (3, 0, 32.30050874152132),
             (2, 1, 28.163268053264495), (0, 0, 2.014211529583787),
             (4, 1, 50.11693501125954), (1, 1, 6.62429174723899),
             (2, 0, 21.098615645243893), (0, 0, 50.35301607659274),
             (1, 1, 58.60248221056623), (2, 1, 7.0415574824996074)]
    SEED = 39260

    def test_split_vote_forward_cycle_converges(self):
        replicas, submitted, finished = run_workload("m2paxos", self.STEPS,
                                                     seed=self.SEED)
        check_invariants(replicas, submitted, finished)


class TestPinnedSymmetricCases:
    """The same interleaving must stay live for every other protocol."""

    @pytest.mark.parametrize("protocol", ["mencius", "epaxos", "multipaxos", "caesar"])
    def test_three_way_contention(self, protocol):
        replicas, submitted, finished = run_workload(protocol, PINNED_STEPS)
        check_invariants(replicas, submitted, finished)


class TestPinnedM2PaxosPartitionHeal:
    """M2Paxos ownership acquisition across a partition-then-heal nemesis.

    Both sides of a queue-mode partition contend for the same key while the
    cut is up; acquisition rounds from the minority side arrive in a burst at
    the heal.  The ownership machinery must converge within a bounded number
    of simulation events — an acquisition retry storm after the heal is the
    regression this pins (non-Hypothesis: the interleaving replays exactly).
    """

    #: Event budget: the pinned run takes ~206 events; a livelock regression
    #: burns the 300s virtual-time deadline instead (hundreds of thousands).
    MAX_EVENTS = 5_000

    def test_ownership_contention_across_partition_heal_converges(self):
        from repro.chaos.nemesis import Nemesis, NemesisPlan, PartitionFault
        from repro.harness.cluster import ClusterConfig, build_cluster

        cluster = build_cluster(ClusterConfig(protocol="m2paxos", seed=11))
        plan = NemesisPlan("partition-heal", (
            PartitionFault(at_ms=40.0, heal_at_ms=400.0, groups=((0, 1, 2), (3, 4))),))
        Nemesis(cluster, plan)

        submitted = []
        # Same-key contention from both sides of the cut, before and during
        # the partition (origins 3 and 4 are in the minority).
        for index, (origin, delay) in enumerate([(0, 0.0), (3, 0.0), (1, 60.0),
                                                 (4, 80.0), (2, 200.0), (3, 250.0)]):
            command = Command(command_id=(origin, index), key="key-0", operation="put",
                              value=f"v{index}", origin=origin)
            submitted.append(command)
            cluster.sim.schedule(delay, lambda r=cluster.replicas[origin],
                                 c=command: r.submit(c, ignore))

        ids = [c.command_id for c in submitted]
        finished = run_until_executed(cluster, ids, deadline_ms=300_000)
        assert finished, "m2paxos did not converge after the partition healed"
        assert cluster.sim.steps_executed < self.MAX_EVENTS
        assert cluster.check_consistency() == []
        owners = {r.owners.get("key-0") for r in cluster.replicas
                  if isinstance(r, M2PaxosReplica)}
        assert len(owners) == 1
