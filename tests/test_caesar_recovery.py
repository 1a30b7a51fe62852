"""Failure-injection tests for CAESAR's recovery phase (Section V-E)."""

from __future__ import annotations

import repro.core.caesar as caesar
from repro.consensus.interface import DecisionKind
from repro.core.history import CommandStatus
from tests.conftest import build_replicas, ignore, make_command, order_violations


def run_until_executed_on_live(sim, replicas, command_ids, deadline_ms=60000):
    """Run until every live replica has executed every given command."""
    return sim.run_until(
        lambda: all(r.has_executed(cid)
                    for r in replicas if not r.crashed for cid in command_ids),
        deadline=deadline_ms)


class TestLeaderCrashRecovery:
    def test_command_recovered_after_leader_crash_post_propose(self):
        """The leader crashes right after broadcasting FASTPROPOSE; a peer finishes it."""
        sim, network, replicas = build_replicas(recovery=True, seed=3)
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        # Let the FASTPROPOSE reach the other nodes, then crash the leader
        # before it can send STABLE (well under one round trip to the quorum).
        sim.run(until=sim.now + 40.0)
        replicas[0].crash()
        assert run_until_executed_on_live(sim, replicas, [command.command_id])
        recoveries = sum(r.stats.recoveries_started for r in replicas if not r.crashed)
        assert recoveries >= 1
        for replica in replicas[1:]:
            assert replica.has_executed(command.command_id)

    def test_command_recovered_when_leader_crashes_before_any_propose_is_lost(self):
        """Crash after STABLE was sent: peers just deliver normally, no recovery needed."""
        sim, network, replicas = build_replicas(recovery=True, seed=4)
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        # Run past the full fast decision (fast quorum RTT is 90 ms from Virginia).
        sim.run(until=sim.now + 400.0)
        replicas[0].crash()
        assert run_until_executed_on_live(sim, replicas, [command.command_id])

    def test_recovery_preserves_conflicting_order(self):
        """Commands decided before/after a crash never violate consistency."""
        sim, network, replicas = build_replicas(recovery=True, seed=5)
        early = [(i, make_command(i, 0, key="hot", origin=i)) for i in range(5)]
        for origin, command in early:
            replicas[origin].submit(command, ignore)
        sim.run(until=sim.now + 60.0)
        replicas[0].crash()
        late = [(i, make_command(i, 1, key="hot", origin=i)) for i in range(1, 5)]
        for origin, command in late:
            replicas[origin].submit(command, ignore)
        all_ids = [c.command_id for _, c in early + late]
        assert run_until_executed_on_live(sim, replicas, all_ids, deadline_ms=120000)
        assert order_violations(replicas) == []

    def test_multiple_pending_commands_recovered(self):
        sim, network, replicas = build_replicas(recovery=True, seed=6)
        commands = [make_command(0, k, key=f"k{k}", origin=0) for k in range(5)]
        for command in commands:
            replicas[0].submit(command, ignore)
        sim.run(until=sim.now + 50.0)
        replicas[0].crash()
        ids = [c.command_id for c in commands]
        assert run_until_executed_on_live(sim, replicas, ids, deadline_ms=120000)

    def test_crash_of_non_leader_does_not_block_decisions(self):
        sim, network, replicas = build_replicas(recovery=True, seed=7)
        replicas[4].crash()
        commands = [make_command(0, k, key="x", origin=0) for k in range(3)]
        for command in commands:
            replicas[0].submit(command, ignore)
        ids = [c.command_id for c in commands]
        assert run_until_executed_on_live(sim, replicas, ids, deadline_ms=60000)

    def test_two_crashes_still_make_progress_with_classic_quorum(self, monkeypatch):
        """With f=2 failures the fast quorum is unavailable but CQ=3 still decides."""
        monkeypatch.setattr(caesar, "FAST_PROPOSAL_TIMEOUT_MS", 300.0)
        sim, network, replicas = build_replicas(recovery=True, seed=8)
        replicas[3].crash()
        replicas[4].crash()
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        assert run_until_executed_on_live(sim, replicas, [command.command_id],
                                          deadline_ms=60000)
        decision = replicas[0].decisions[command.command_id]
        # The decision had to go through the slow proposal phase (no fast quorum).
        assert decision.kind is not DecisionKind.FAST
        assert replicas[0].stats.slow_proposals >= 1


class TestRecoveryMessageHandling:
    def test_recovery_reply_carries_local_state(self):
        sim, network, replicas = build_replicas(recovery=True, seed=9)
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        sim.run(until=sim.now + 70.0)  # FASTPROPOSE received at the EU/US sites
        entry = replicas[2].history.get(command.command_id)
        assert entry is not None
        assert entry.status is CommandStatus.FAST_PENDING

    def test_acceptor_ignores_lower_ballot_recovery(self):
        from repro.consensus.ballots import Ballot
        from repro.core.messages import Recovery

        sim, network, replicas = build_replicas(recovery=True, seed=10)
        command = make_command(0, 0, key="x", origin=0)
        replicas[0].submit(command, ignore)
        sim.run(until=sim.now + 400.0)
        # Replica 1 already processed ballot (0, 0); an equal-ballot recovery is ignored.
        before = replicas[1].promised(command.command_id)
        replicas[1].recovery.on_recovery_message(2, Recovery(command=command,
                                                             ballot=Ballot(0, 0)))
        assert replicas[1].promised(command.command_id) == before == Ballot(0, 0)

    def test_suspected_node_recovery_is_staggered(self):
        sim, network, replicas = build_replicas(recovery=True, seed=11)
        delays = [replicas[i].recovery._stagger_delay() for i in range(1, 5)]
        assert delays == sorted(delays)
        assert len(set(delays)) == len(delays)
