"""Integration tests for the Mencius and M2Paxos baselines."""

from __future__ import annotations

import pytest

from repro.baselines.m2paxos import M2PaxosReplica
from repro.baselines.mencius import MenciusReplica
from repro.sim.topology import ec2_five_sites
from tests.conftest import build_replicas, ignore, make_command, order_violations, submit_and_run


class TestMencius:
    def test_single_command_delivered_everywhere(self):
        sim, _, replicas = build_replicas(MenciusReplica)
        command = make_command(0, 0, key="a", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        assert all(r.commands_executed == 1 for r in replicas)

    def test_latency_governed_by_slowest_peer(self):
        """A Mencius leader must hear from every node, so latency tracks the farthest RTT."""
        topology = ec2_five_sites()
        sim, _, replicas = build_replicas(MenciusReplica)
        virginia = topology.index_of("virginia")
        command = make_command(0, 0, key="a", origin=virginia)
        assert submit_and_run(sim, replicas, [(virginia, command)])
        latency = replicas[virginia].decisions[command.command_id].latency_ms
        farthest = max(topology.rtt(virginia, other) for other in range(5))
        assert latency == pytest.approx(farthest, rel=0.15)

    def test_total_order_identical_on_all_replicas(self):
        sim, _, replicas = build_replicas(MenciusReplica)
        commands = [(i, make_command(i, k, key=f"k{k}", origin=i))
                    for i in range(5) for k in range(4)]
        assert submit_and_run(sim, replicas, commands)
        reference = [c.command_id for c in replicas[0].execution_log]
        for replica in replicas[1:]:
            assert [c.command_id for c in replica.execution_log] == reference

    def test_skips_fill_unused_slots(self):
        """An idle replica's slots are skipped so others can still deliver."""
        sim, _, replicas = build_replicas(MenciusReplica)
        # Only replica 0 and 1 propose; slots owned by 2, 3, 4 must be skipped.
        commands = [(0, make_command(0, k, key=f"a{k}", origin=0)) for k in range(5)]
        commands += [(1, make_command(1, k, key=f"b{k}", origin=1)) for k in range(5)]
        assert submit_and_run(sim, replicas, commands)
        assert sum(r.stats.slots_skipped for r in replicas) > 0

    def test_conflicting_commands_consistent(self):
        sim, _, replicas = build_replicas(MenciusReplica)
        commands = [(i, make_command(i, k, key="hot", origin=i))
                    for i in range(5) for k in range(3)]
        assert submit_and_run(sim, replicas, commands)
        assert order_violations(replicas) == []


class TestM2Paxos:
    def test_first_access_acquires_ownership(self):
        sim, _, replicas = build_replicas(M2PaxosReplica)
        command = make_command(0, 0, key="mine", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        assert replicas[0].stats.acquisitions == 1
        assert replicas[0].owners["mine"] == 0

    def test_owner_orders_without_new_acquisition(self):
        sim, _, replicas = build_replicas(M2PaxosReplica)
        commands = [(0, make_command(0, k, key="mine", origin=0)) for k in range(4)]
        assert submit_and_run(sim, replicas, commands)
        assert replicas[0].stats.acquisitions == 1
        assert replicas[0].stats.local_decisions == 4

    def test_non_owner_forwards_to_owner(self):
        sim, _, replicas = build_replicas(M2PaxosReplica)
        first = make_command(0, 0, key="shared", origin=0)
        assert submit_and_run(sim, replicas, [(0, first)])
        second = make_command(1, 0, key="shared", origin=1)
        assert submit_and_run(sim, replicas, [(1, second)])
        assert replicas[1].stats.commands_forwarded >= 1
        # The forwarded command is ordered by the owner (replica 0).
        assert replicas[0].stats.local_decisions == 2

    def test_forwarded_commands_cost_more_latency(self):
        """The forwarding hop is what degrades M2Paxos under conflicts (Figure 6)."""
        sim, _, replicas = build_replicas(M2PaxosReplica)
        local = make_command(0, 0, key="shared", origin=0)
        assert submit_and_run(sim, replicas, [(0, local)])
        remote = make_command(4, 0, key="shared", origin=4)
        assert submit_and_run(sim, replicas, [(4, remote)])
        local_latency = replicas[0].decisions[local.command_id].latency_ms
        remote_latency = replicas[4].decisions[remote.command_id].latency_ms
        assert remote_latency > local_latency

    def test_per_key_order_consistent_across_replicas(self):
        sim, _, replicas = build_replicas(M2PaxosReplica)
        commands = [(i, make_command(i, k, key="hot", origin=i))
                    for i in range(5) for k in range(3)]
        assert submit_and_run(sim, replicas, commands)
        assert order_violations(replicas) == []

    def test_different_keys_independent(self):
        sim, _, replicas = build_replicas(M2PaxosReplica)
        commands = [(i, make_command(i, 0, key=f"key-{i}", origin=i)) for i in range(5)]
        assert submit_and_run(sim, replicas, commands)
        assert all(r.commands_executed == 5 for r in replicas)

    def test_state_machines_converge(self):
        sim, _, replicas = build_replicas(M2PaxosReplica)
        commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                    for i in range(5) for k in range(3)]
        assert submit_and_run(sim, replicas, commands)
        snapshots = [r.state_machine.snapshot() for r in replicas]
        assert all(s == snapshots[0] for s in snapshots)

    def test_concurrent_acquisition_single_winner(self):
        """Two replicas racing for an unowned key converge on one owner."""
        sim, _, replicas = build_replicas(M2PaxosReplica)
        first = make_command(0, 0, key="contested", origin=0)
        second = make_command(4, 0, key="contested", origin=4)
        replicas[0].submit(first, ignore)
        replicas[4].submit(second, ignore)
        assert sim.run_until(
            lambda: all(r.has_executed(first.command_id) and r.has_executed(second.command_id)
                        for r in replicas),
            deadline=60000)
        owners = {r.owners.get("contested") for r in replicas}
        assert len(owners) == 1
