"""Socket-vs-simulator oracle equivalence, and crash recovery over TCP.

These are the acceptance tests of the real deployment mode: the same seeded
workload is replayed through the discrete-event simulator and over real
localhost TCP sockets, and the decided command sets must be identical for
every protocol.  A second test kills a replica mid-run and shows the PR-6
retransmission + catch-up layer recovering over real sockets.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.net.transport as net_transport
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.messages import Stable
from repro.net.loopback import LoopbackCluster, run_loopback, run_sim_oracle
from repro.runtime.registry import MessageRegistry

PROTOCOLS = ["caesar", "epaxos", "multipaxos", "mencius", "m2paxos"]


@pytest.mark.slow
class TestOracleEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_tcp_run_decides_the_same_commands_as_the_simulator(self, protocol):
        net = run_loopback(protocol, replicas=3, clients=3, commands_per_client=5,
                           conflict_rate=0.3, seed=1, timeout_s=60.0)
        sim = run_sim_oracle(protocol, replicas=3, clients=3, commands_per_client=5,
                             conflict_rate=0.3, seed=1)

        assert net.completed == net.expected, \
            f"TCP run completed {net.completed}/{net.expected} commands"
        assert sim.completed == sim.expected
        # Same decided command set on every replica, across substrates.
        assert net.executed_sets == sim.executed_sets
        # Generalized-consensus consistency on both substrates.
        assert net.violations == 0
        assert sim.violations == 0

    def test_real_messages_crossed_the_wire(self):
        net = run_loopback("caesar", replicas=3, clients=2, commands_per_client=3,
                           seed=3, timeout_s=60.0)
        assert net.completed == net.expected
        for node_id, stats in net.stats.items():
            assert stats["network"]["messages_sent"] > 0, node_id
            assert stats["network"]["codec_bytes_sent"] > 0, node_id


@pytest.mark.slow
class TestCrashRecoveryOverSockets:
    def test_killing_a_replica_mid_run_does_not_stop_the_cluster(self):
        """Clients fail over; survivors finish the workload consistently.

        Messages lost around the crash are re-sent by the retransmission
        layer, and commands the dead replica was *leading* mid-protocol are
        finalized by CAESAR's recovery protocol (without it the survivors
        can stall behind an undecided command forever) — the socket-world
        equivalent of the crash nemesis.
        """
        run = run_loopback("caesar", replicas=3, clients=3, commands_per_client=8,
                           conflict_rate=0.3, seed=2, timeout_s=90.0,
                           kill_replica=1, kill_after_commands=6, recovery=True)
        assert run.completed == run.expected, \
            f"only {run.completed}/{run.expected} commands after the kill"
        # Only the survivors are compared; both executed everything.
        assert sorted(run.executed) == [0, 2]
        for node_id in (0, 2):
            assert len(run.executed[node_id]) >= run.expected
        assert run.violations == 0


class TestWireAccounting:
    def test_counters_equal_the_snapshot_recorded_before_accounting_was_hoisted(self):
        """``broadcast`` accounts a message once for all its destinations.

        One closed-loop client keeps a single command in flight, so the
        message sequence — and every counter — is the same in every run.
        The numbers below were recorded at commit 3a13b3e, where
        ``_transmit`` did the accounting once per destination.
        """
        run = run_loopback("caesar", replicas=3, clients=1, commands_per_client=10,
                           conflict_rate=0.0, seed=7, timeout_s=30.0)
        assert run.completed == 10
        follower = {"messages_sent": 10, "messages_delivered": 20, "messages_dropped": 0,
                    "bytes_sent": 134, "codec_bytes_sent": 94,
                    "per_type_codec_bytes": {"FastProposeReply": 94}}
        assert {node: stats["network"] for node, stats in run.stats.items()} == {
            0: {"messages_sent": 70, "messages_delivered": 50, "messages_dropped": 0,
                "bytes_sent": 2330, "codec_bytes_sent": 2050,
                "per_type_codec_bytes": {"FastPropose": 972, "FastProposeReply": 94,
                                         "Stable": 984}},
            1: follower,
            2: follower,
        }


async def _broadcast_one_stable(monkeypatch) -> dict:
    """Broadcast one ``Stable`` from replica 0 of a live 3-replica cluster;
    count the encodes and framings it cost and what every replica executed."""
    cluster = LoopbackCluster("caesar", replicas=3, seed=3)
    await cluster.start()
    try:
        replicas = [cluster.servers[i].replica for i in range(3)]
        while not all(replica.transport.connection(dst).connected
                      for replica in replicas for dst in range(3)
                      if dst != replica.node_id):
            await asyncio.sleep(0.005)
        calls = {"encode": 0, "encode_frame": 0}
        encode, encode_frame = MessageRegistry.encode, net_transport.encode_frame

        def counted_encode(self, message):
            calls["encode"] += 1
            return encode(self, message)

        def counted_frame(payload):
            calls["encode_frame"] += 1
            return encode_frame(payload)

        command = Command(command_id=(9, 0), key="k", operation="put", value="v", origin=0)
        with monkeypatch.context() as counting:
            counting.setattr(MessageRegistry, "encode", counted_encode)
            counting.setattr(net_transport, "encode_frame", counted_frame)
            replicas[0].broadcast(Stable(command=command, ballot=Ballot(0, 0),
                                         timestamp=LogicalTimestamp(1, 0),
                                         predecessors=frozenset()))
        for _ in range(400):
            if all(replica.commands_executed == 1 for replica in replicas):
                break
            await asyncio.sleep(0.005)
        calls["executed"] = [replica.commands_executed for replica in replicas]
        calls["sent"] = cluster.servers[0].network.stats.messages_sent
    finally:
        await cluster.stop()
    return calls


class TestBroadcastIsEncodedOnce:
    def test_one_kernel_broadcast_is_one_encode_and_one_frame(self, monkeypatch):
        """``Node.broadcast`` is ``AsyncioTransport.broadcast``: one encode,
        one frame, three destinations.  (It used to fan out through
        ``Node.send``, encoding and framing once per destination — three
        times here, the self-send that never reaches a socket included.)"""
        calls = asyncio.run(_broadcast_one_stable(monkeypatch))
        assert calls == {"encode": 1, "encode_frame": 1, "executed": [1, 1, 1], "sent": 3}
