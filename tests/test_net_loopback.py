"""Socket-vs-simulator oracle equivalence, and crash recovery over TCP.

These are the acceptance tests of the real deployment mode: the same seeded
workload is replayed through the discrete-event simulator and over real
localhost TCP sockets, and every replica must execute the same commands
(ids and contents) for every protocol.  A second test kills a replica
mid-run and shows the PR-6 retransmission + catch-up layer recovering over
real sockets; a third does the same under a closed-loop ``repro loadgen``.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

import repro.net.client as net_client
import repro.net.transport as net_transport
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.config import CaesarConfig
from repro.core.messages import Stable
from repro.net.client import LoadgenConfig, RemoteReplica, fetch_stats, run_loadgen
from repro.net.cluster import ServeConfig, serve_cluster
from repro.net.framing import encode_frame
from repro.net.loopback import LoopbackCluster, run_loopback, run_sim_oracle
from repro.net.wire import ROLE_CLIENT, ClientRequest, Hello
from repro.runtime.registry import WIRE, MessageRegistry
from repro.sim.node import Node

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
        # Every replica executed the same commands — ids, keys, operations
        # and values — on both substrates.  Ids alone are (client, 0..budget-1)
        # whatever the streams draw; the contents are what a drifted fork
        # label on one side changes.  Per-key order may differ with timing.
        assert net.executed == sim.executed
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


class TestNodeReceiveIsSimulatorOnly:
    def test_a_tcp_run_never_enters_node_receive(self, monkeypatch):
        # Peer messages and self-sends go PeerNetwork.deliver_local ->
        # Node._dispatch_one; only the simulator queues behind the CPU.
        received = []
        original = Node.receive

        def spy(self, src, message):
            received.append(type(message).__name__)
            original(self, src, message)

        monkeypatch.setattr(Node, "receive", spy)
        net = run_loopback("caesar", replicas=3, clients=2, commands_per_client=5,
                           seed=3, timeout_s=60.0)
        assert net.completed == net.expected
        assert received == []
        # The spy sees the simulator's messages, so the zero above is real.
        sim = run_sim_oracle("caesar", replicas=3, clients=2, commands_per_client=5, seed=3)
        assert sim.completed == sim.expected
        assert received


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


async def _loadgen_with_a_replica_killed(clients: int, commands_per_client: int):
    """Closed-loop ``repro loadgen`` against a cluster that loses replica 1 mid-run."""
    cluster = LoopbackCluster("caesar", replicas=3, seed=2, recovery=True)
    await cluster.start()

    async def kill_mid_run() -> None:
        doomed = cluster.servers[1]
        while doomed.replica.commands_executed < commands_per_client // 4:
            await asyncio.sleep(0.002)
        doomed.crash()
        await doomed.stop()

    killer = asyncio.get_running_loop().create_task(kill_mid_run())
    try:
        report = await net_client._loadgen(LoadgenConfig(
            endpoints=cluster.peers, clients=clients,
            commands_per_client=commands_per_client, conflict_rate=0.3, seed=2,
            timeout_s=30.0))
        await killer
    finally:
        killer.cancel()
        await cluster.stop()
    return report


@pytest.mark.slow
class TestLoadgenFailover:
    def test_a_closed_loop_client_leaves_a_dead_replica(self, monkeypatch):
        """Open-loop clients had shared failover connections; a closed-loop one
        had neither fallbacks nor a timeout and stopped where its replica died
        (``timeout: 916/1200 commands answered within 12s``)."""
        # The dead endpoint refuses the drain's stats polls for the whole
        # window; that verdict is not what is under test here.
        monkeypatch.setattr(net_client, "DRAIN_S", 0.5)
        report = asyncio.run(_loadgen_with_a_replica_killed(clients=3,
                                                            commands_per_client=120))
        assert report.completed == 3 * 120
        assert not [failure for failure in report.failures
                    if failure.startswith("timeout:")]


class TestWireAccounting:
    def test_counters_equal_the_snapshot_recorded_before_accounting_was_hoisted(self):
        """``broadcast`` accounts a message once for all its destinations.

        One closed-loop client keeps a single command in flight, so the
        message sequence — and every counter — is the same in every run.
        The numbers below were recorded at commit 3a13b3e, where
        ``_transmit`` did the accounting once per destination.  The leader's
        ``bytes_sent`` was 2,330 there and until the self-copies (10 replies
        and 20 proposals and stables to itself, 866 framed bytes) stopped
        being counted as socket bytes.
        """
        run = run_loopback("caesar", replicas=3, clients=1, commands_per_client=10,
                           conflict_rate=0.0, seed=7, timeout_s=30.0)
        assert run.completed == 10
        follower = {"messages_sent": 10, "messages_delivered": 20, "messages_dropped": 0,
                    "bytes_sent": 134, "codec_bytes_sent": 94,
                    "per_type_codec_bytes": {"FastProposeReply": 94}}
        assert {node: stats["network"] for node, stats in run.stats.items()} == {
            0: {"messages_sent": 70, "messages_delivered": 50, "messages_dropped": 0,
                "bytes_sent": 1464, "codec_bytes_sent": 2050,
                "per_type_codec_bytes": {"FastPropose": 972, "FastProposeReply": 94,
                                         "Stable": 984}},
            1: follower,
            2: follower,
        }


async def _bytes_written_per_replica(monkeypatch) -> tuple:
    """Commit a few commands on a 3-replica cluster; per replica, a copy of its
    network stats and the total length of the frames its ``send_frame`` wrote,
    both taken at the same instant."""
    written: dict = {}
    send_frame = net_transport.PeerConnection.send_frame

    def counted(self, frame):
        took = send_frame(self, frame)
        if took:
            node_id = self.network.local_id
            written[node_id] = written.get(node_id, 0) + len(frame)
        return took

    monkeypatch.setattr(net_transport.PeerConnection, "send_frame", counted)
    cluster = LoopbackCluster("caesar", replicas=3, seed=6)
    await cluster.start()
    remote = RemoteReplica(0, *cluster.peers[0], client_id=9)
    try:
        await remote.connect()
        for sequence in range(4):
            done = asyncio.get_running_loop().create_future()
            remote.submit(_command(sequence), callback=done.set_result)
            await asyncio.wait_for(done, timeout=10.0)
        stats = {node_id: dataclasses.asdict(server.network.stats)
                 for node_id, server in cluster.servers.items()}
        return stats, dict(written)
    finally:
        await remote.close()
        await cluster.stop()


class TestBytesSent:
    def test_bytes_sent_is_what_the_sockets_took(self, monkeypatch):
        """Self-copies never reach a socket, so they are not ``bytes_sent``; the
        codec counters still count them, as the simulator does."""
        stats, written = asyncio.run(_bytes_written_per_replica(monkeypatch))
        assert {node_id: s["bytes_sent"] for node_id, s in stats.items()} == written
        assert all(written[node_id] > 0 for node_id in range(3))
        # Every copy framed, self-copies included, is 4 bytes of length prefix
        # over its codec bytes: the leader's self-sends are the difference.
        leader = stats[0]
        assert leader["bytes_sent"] < leader["codec_bytes_sent"] + 4 * leader["messages_sent"]


async def _broadcast_one_stable(monkeypatch) -> dict:
    """Broadcast one ``Stable`` from replica 0 of a live 3-replica cluster;
    count the encodes and framings it cost and what every replica executed."""
    cluster = LoopbackCluster("caesar", replicas=3, seed=3)
    await cluster.start()
    try:
        replicas = [cluster.servers[i].replica for i in range(3)]
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


def _command(sequence: int) -> Command:
    return Command(command_id=(9, sequence), key="k", operation="put", value="v", origin=0)


async def _started_cluster_with_a_client() -> dict:
    """What a just-started cluster looks like, and what its first command cost."""
    loop = asyncio.get_running_loop()
    cluster = LoopbackCluster("caesar", replicas=3, seed=4)
    await cluster.start()
    seen = {"links_up_when_start_returned": [
        server.replica.transport.connection(dst).connected
        for node_id, server in cluster.servers.items()
        for dst in cluster.peers if dst != node_id]}
    remote = RemoteReplica(0, *cluster.peers[0], client_id=9)
    try:
        await remote.connect()
        seen["tasks"] = sorted(task.get_name() for task in asyncio.all_tasks()
                               if task is not asyncio.current_task())
        done = loop.create_future()
        started = loop.time()
        remote.submit(_command(0), callback=done.set_result)
        await asyncio.wait_for(done, timeout=10.0)
        seen["first_command_ms"] = (loop.time() - started) * 1000.0
        seen["dropped"] = [server.network.stats.messages_dropped
                           for server in cluster.servers.values()]
        seen["links"] = cluster.servers[0].stats_payload().get("links")
    finally:
        await remote.close()
        await cluster.stop()
    return seen


class TestStartedCluster:
    def test_start_returns_with_the_mesh_up_and_the_first_command_drops_nothing(self):
        """A send to an undialed peer is dropped, and the first broadcast used
        to race the dials: retransmission paid for it with a 1.5 s timeout."""
        seen = asyncio.run(_started_cluster_with_a_client())
        assert seen["links_up_when_start_returned"] == [True] * 6
        assert seen["links"] == {1: True, 2: True}
        assert seen["dropped"] == [0, 0, 0]
        assert seen["first_command_ms"] < CaesarConfig().fast_proposal_timeout_ms / 3

    def test_no_task_per_accepted_connection_and_none_per_client(self):
        """Connections are ``asyncio.Protocol`` objects fed by the loop itself;
        the only tasks are the six dialers that re-dial a lost link."""
        seen = asyncio.run(_started_cluster_with_a_client())
        assert seen["tasks"] == sorted(f"peer-{src}->{dst}" for src in range(3)
                                       for dst in range(3) if dst != src)


async def _stop_one_server() -> list:
    cluster = LoopbackCluster("caesar", replicas=3, seed=3)
    await cluster.start()
    try:
        server = cluster.servers[0]
        for _ in range(400):
            if len(server._accepted) == 2:
                break
            await asyncio.sleep(0.005)
        accepted = list(server._accepted)
        closing_when_awaited = []
        wait_closed = server._server.wait_closed

        async def spy():
            closing_when_awaited.extend(c.is_closing() for c in accepted)
            await wait_closed()

        server._server.wait_closed = spy
        await asyncio.wait_for(server.stop(), timeout=10.0)
    finally:
        await cluster.stop()
    return closing_when_awaited


class TestStopOrder:
    def test_accepted_connections_are_closed_before_wait_closed_is_awaited(self):
        """Since Python 3.12.1 ``Server.wait_closed`` waits for every accepted
        connection to end; the peers holding them are stopped later in the
        same loop, so awaiting it first never returned there."""
        assert asyncio.run(_stop_one_server()) == [True, True]


async def _replica_hangs_up_after_one_request() -> dict:
    hello_and_request = (
        encode_frame(WIRE.encode(Hello(sender=9, role=ROLE_CLIENT)))
        + encode_frame(WIRE.encode(ClientRequest(command=_command(0)))))

    async def serve(reader, writer):
        await reader.readexactly(len(hello_and_request))
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    remote = RemoteReplica(0, *server.sockets[0].getsockname(), client_id=9)
    answered = []
    try:
        await remote.connect()
        remote.submit(_command(0), callback=answered.append)
        seen = {"outstanding_in_flight": remote.outstanding}
        for _ in range(400):
            if remote.crashed:
                break
            await asyncio.sleep(0.005)
        seen["crashed"] = remote.crashed
        seen["outstanding_after_loss"] = remote.outstanding
        remote.submit(_command(1), callback=answered.append)
        seen["outstanding_after_late_submit"] = remote.outstanding
        seen["answered"] = answered
    finally:
        await remote.close()
        server.close()
        await server.wait_closed()
    return seen


class TestClientConnectionLoss:
    def test_a_dead_connection_leaves_nothing_outstanding(self):
        """No reply can arrive on a dead connection; commands left pending
        there kept ``repro loadgen``'s open-loop drain spinning to its timeout."""
        seen = asyncio.run(_replica_hangs_up_after_one_request())
        assert seen == {"outstanding_in_flight": 1, "crashed": True,
                        "outstanding_after_loss": 0,
                        "outstanding_after_late_submit": 0, "answered": []}


@pytest.mark.slow
class TestLocalClusterReadiness:
    def test_wait_ready_returns_with_every_link_up(self):
        """``serve_cluster`` used to return once every listener accepted, with
        the replicas' dials to each other still in flight."""
        with serve_cluster(ServeConfig(protocol="caesar", replicas=3, seed=4)) as cluster:
            links = {node_id: fetch_stats(host, port)["links"]
                     for node_id, (host, port) in cluster.peers.items()}
            report = run_loadgen(LoadgenConfig(endpoints=cluster.peers, clients=3,
                                               commands_per_client=2, seed=4,
                                               timeout_s=30.0))
        assert links == {0: {"1": True, "2": True}, 1: {"0": True, "2": True},
                         2: {"0": True, "1": True}}
        assert report.ok and report.completed == 6
        assert [stats["network"]["messages_dropped"]
                for stats in report.per_replica.values()] == [0, 0, 0]
        assert report.p99_latency_ms < CaesarConfig().fast_proposal_timeout_ms / 3
