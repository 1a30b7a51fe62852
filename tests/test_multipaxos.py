"""Integration tests for the Multi-Paxos baseline."""

from __future__ import annotations

from repro.baselines.multipaxos import MultiPaxosReplica
from repro.sim.topology import ec2_five_sites
from tests.conftest import build_replicas, ignore, make_command, submit_and_run


class TestOrdering:
    def test_leader_orders_local_command(self):
        sim, _, replicas = build_replicas(MultiPaxosReplica, leader_id=0)
        command = make_command(0, 0, key="a", origin=0)
        assert submit_and_run(sim, replicas, [(0, command)])
        assert replicas[0].stats.slots_proposed == 1
        assert replicas[0].stats.slots_committed == 1

    def test_non_leader_forwards_to_leader(self):
        sim, _, replicas = build_replicas(MultiPaxosReplica, leader_id=3)
        command = make_command(2, 0, key="a", origin=2)
        assert submit_and_run(sim, replicas, [(2, command)])
        assert replicas[2].stats.commands_forwarded == 1
        assert replicas[3].stats.slots_proposed == 1

    def test_total_order_identical_on_all_replicas(self):
        sim, _, replicas = build_replicas(MultiPaxosReplica, leader_id=0)
        commands = [(i, make_command(i, k, key=f"k{k}", origin=i))
                    for i in range(5) for k in range(4)]
        assert submit_and_run(sim, replicas, commands)
        reference = [c.command_id for c in replicas[0].execution_log]
        for replica in replicas[1:]:
            assert [c.command_id for c in replica.execution_log] == reference

    def test_latency_depends_on_leader_distance(self):
        """Clients far from the leader pay the forwarding hop (Figure 7 effect)."""
        topology = ec2_five_sites()
        ireland = topology.index_of("ireland")
        mumbai = topology.index_of("mumbai")

        def leader_latency(leader_id: int, origin: int) -> float:
            sim, _, replicas = build_replicas(MultiPaxosReplica, leader_id=leader_id)
            command = make_command(origin, 0, key="a", origin=origin)
            assert submit_and_run(sim, replicas, [(origin, command)])
            return replicas[origin].decisions[command.command_id].latency_ms

        near = leader_latency(ireland, topology.index_of("virginia"))
        far = leader_latency(mumbai, topology.index_of("virginia"))
        assert far > near

    def test_conflict_rate_does_not_matter(self):
        """Multi-Paxos orders everything; same-key and different-key commands behave alike."""
        sim, _, replicas = build_replicas(MultiPaxosReplica, leader_id=0)
        same_key = [(i, make_command(i, 0, key="hot", origin=i)) for i in range(5)]
        assert submit_and_run(sim, replicas, same_key)
        assert all(r.commands_executed == 5 for r in replicas)

    def test_state_machines_converge(self):
        sim, _, replicas = build_replicas(MultiPaxosReplica, leader_id=0)
        commands = [(i, make_command(i, k, key=f"hot-{k % 2}", origin=i))
                    for i in range(5) for k in range(3)]
        assert submit_and_run(sim, replicas, commands)
        snapshots = [r.state_machine.snapshot() for r in replicas]
        assert all(s == snapshots[0] for s in snapshots)


class TestLeaderFailover:
    def test_new_leader_elected_after_crash(self):
        sim, _, replicas = build_replicas(MultiPaxosReplica, recovery=True, leader_id=0, seed=2)
        first = make_command(1, 0, key="a", origin=1)
        replicas[1].submit(first, ignore)
        assert sim.run_until(lambda: replicas[1].has_executed(first.command_id),
                             deadline=30000)
        replicas[0].crash()
        # Wait for the failure detector and election to settle.
        sim.run(until=sim.now + 3000.0)
        live = [r for r in replicas if not r.crashed]
        assert any(r.is_leader for r in live)
        second = make_command(2, 0, key="b", origin=2)
        replicas[2].submit(second, ignore)
        assert sim.run_until(
            lambda: all(r.has_executed(second.command_id) for r in live), deadline=30000)

    def test_follower_crash_does_not_stop_progress(self):
        sim, _, replicas = build_replicas(MultiPaxosReplica, recovery=True, leader_id=0, seed=3)
        replicas[4].crash()
        command = make_command(1, 0, key="a", origin=1)
        replicas[1].submit(command, ignore)
        assert sim.run_until(
            lambda: all(r.has_executed(command.command_id)
                        for r in replicas if not r.crashed),
            deadline=30000)
