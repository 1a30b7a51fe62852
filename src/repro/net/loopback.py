"""In-process loopback cluster + simulator oracle for equivalence tests.

The loopback harness runs N :class:`~repro.net.replica.ReplicaServer`\\ s in
ONE event loop in ONE process, on real localhost TCP sockets (pre-bound to
port 0, so no fixed ports and no port races).  It exists for tests: real
framing, real partial reads, real asyncio scheduling — but fast to start,
easy to fault-inject (``crash`` flips the hosted replica in place) and with
direct access to every replica's execution log.  ``start()`` returns once
every replica has dialed every other, so the first command finds the mesh up.

:func:`run_loopback` and :func:`run_sim_oracle` replay the *same* seeded
workload over sockets and in the discrete-event simulator respectively: both
pools come from :func:`~repro.workload.clients.build_pool` with the same
round-robin placement, so every replica must execute the same commands —
ids, keys, operations and values — on both.  That is the oracle equivalence
the tier-1 suite checks for every protocol.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.consensus.interface import ConsensusReplica, order_violations
from repro.metrics.collector import MetricsCollector
from repro.net.client import RECONNECT_TIMEOUT_MS, connect_pool
from repro.net.clock import WallClock
from repro.net.replica import ReplicaConfig, ReplicaServer
from repro.net.transport import ReconnectPolicy
from repro.workload.clients import build_pool
from repro.workload.generator import WorkloadConfig

#: Fast re-dial for single-host loops: crashes should heal in tens of ms.
LOOPBACK_RECONNECT = ReconnectPolicy(initial_ms=20.0, factor=1.5, max_ms=200.0,
                                     connect_timeout_s=2.0)


@dataclass
class ClusterRun:
    """Executed state of one cluster run (either substrate).

    ``executed`` maps each live replica's id to what it executed, in order,
    as ``command id -> (key, operation, value)``; ``violations`` counts
    pairwise conflicting-order violations between those replicas' logs (must
    be 0 for a correct run).
    """

    protocol: str
    expected: int
    completed: int
    executed: Dict[int, Dict[Tuple[int, int], tuple]]
    violations: int
    stats: Dict[int, Dict[str, object]] = field(default_factory=dict)

    @classmethod
    def of(cls, protocol: str, expected: int, completed: int,
           replicas: Sequence[ConsensusReplica]) -> "ClusterRun":
        """Snapshot the live replicas' execution logs."""
        return cls(protocol=protocol, expected=expected, completed=completed,
                   executed={replica.node_id: {c.command_id: (c.key, c.operation, c.value)
                                               for c in replica.execution_log}
                             for replica in replicas if not replica.crashed},
                   violations=len(order_violations(replicas)))


class LoopbackCluster:
    """N replica servers sharing one event loop over localhost TCP."""

    def __init__(self, protocol: str, replicas: int = 3, seed: int = 0,
                 recovery: bool = False) -> None:
        sockets = []
        for _ in range(replicas):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        self.peers = {i: ("127.0.0.1", sock.getsockname()[1])
                      for i, sock in enumerate(sockets)}
        self.servers: Dict[int, ReplicaServer] = {
            i: ReplicaServer(
                ReplicaConfig(node_id=i, peers=self.peers, protocol=protocol,
                              seed=seed, recovery=recovery),
                server_socket=sock, reconnect=LOOPBACK_RECONNECT)
            for i, sock in enumerate(sockets)}

    async def start(self) -> None:
        """Start every replica server; return once the full mesh is dialed.

        A send to a peer whose dial has not landed is dropped, so a client
        that beat the mesh would pay a retransmission for its first command.
        """
        for server in self.servers.values():
            await server.start()
        while not all(all(server.replica.transport.links().values())
                      for server in self.servers.values()):
            await asyncio.sleep(0.005)

    async def stop(self) -> None:
        """Stop every replica server."""
        for server in self.servers.values():
            await server.stop()


def run_loopback(protocol: str, replicas: int = 3, clients: int = 3,
                 commands_per_client: int = 8, conflict_rate: float = 0.3,
                 seed: int = 1, timeout_s: float = 30.0,
                 kill_replica: Optional[int] = None,
                 kill_after_commands: int = 0,
                 recovery: bool = False) -> ClusterRun:
    """Run a seeded closed-loop workload over localhost TCP (blocking).

    With ``kill_replica`` set, that replica is crashed (listener closed,
    outbound links torn down, node marked crashed) once the pool completes
    ``kill_after_commands`` commands — clients pinned to it reconnect via
    their timeout path, and the survivors must still finish the workload.
    Kill runs should also set ``recovery=True``: a command the dead replica
    was leading when it died stays undecided forever without the recovery
    protocol (retransmission is sender-side and catch-up only replays
    *decided* commands), and every later conflicting command would block
    behind it.
    """
    return asyncio.run(_run_loopback(protocol, replicas, clients,
                                     commands_per_client, conflict_rate, seed,
                                     timeout_s, kill_replica, kill_after_commands,
                                     recovery))


async def _run_loopback(protocol: str, replicas: int, clients: int,
                        commands_per_client: int, conflict_rate: float,
                        seed: int, timeout_s: float,
                        kill_replica: Optional[int],
                        kill_after_commands: int,
                        recovery: bool = False) -> ClusterRun:
    loop = asyncio.get_running_loop()
    cluster = LoopbackCluster(protocol, replicas=replicas, seed=seed,
                              recovery=recovery)
    await cluster.start()
    clock = WallClock(seed=seed, loop=loop)
    hosted = [cluster.servers[i].replica for i in sorted(cluster.servers)]

    def _kill_now() -> None:
        server = cluster.servers[kill_replica]
        server.crash()
        loop.create_task(server.stop())

    # In a kill run the clients of the doomed replica fail over to a survivor.
    failover = kill_replica is not None
    metrics = (_KillAfter(kill_after_commands, _kill_now) if failover
               else MetricsCollector(warmup_ms=0.0))
    connections = []
    try:
        pool, connections = await connect_pool(
            cluster.peers, clients, WorkloadConfig(conflict_rate=conflict_rate), clock,
            metrics, failover=failover, max_commands=commands_per_client,
            reconnect_timeout_ms=RECONNECT_TIMEOUT_MS if failover else None)

        expected = clients * commands_per_client
        deadline = loop.time() + timeout_s
        pool.start_all()
        while loop.time() < deadline and pool.total_completed < expected:
            await asyncio.sleep(0.02)
        # Drain: every *live* replica must execute every completed command.
        while loop.time() < deadline and any(
                replica.commands_executed < pool.total_completed
                for replica in hosted if not replica.crashed):
            await asyncio.sleep(0.02)

        run = ClusterRun.of(protocol, expected, pool.total_completed, hosted)
        run.stats = {node_id: cluster.servers[node_id].stats_payload()
                     for node_id in run.executed}
        return run
    finally:
        for connection in connections:
            await connection.close()
        await cluster.stop()


class _KillAfter(MetricsCollector):
    """Collector that fires a callback at the Nth completed command.

    Kill runs trigger the crash from the completion path itself rather than
    a polling loop: on fast hardware the whole workload can finish between
    two polls, which would quietly turn "kill mid-run" into "kill after the
    run".  Firing on the exact Nth record keeps the fault mid-workload on
    every machine.
    """

    def __init__(self, threshold: int, on_threshold, warmup_ms: float = 0.0) -> None:
        super().__init__(warmup_ms=warmup_ms)
        self._threshold = threshold
        self._on_threshold = on_threshold
        self._seen = 0
        self._fired = False

    def record_command(self, origin: int, proposer: int, latency_ms: float,
                       completed_at: float, key: str) -> None:
        super().record_command(origin=origin, proposer=proposer, latency_ms=latency_ms,
                               completed_at=completed_at, key=key)
        self._seen += 1
        if self._seen >= self._threshold and not self._fired:
            self._fired = True
            self._on_threshold()


def run_sim_oracle(protocol: str, replicas: int = 3, clients: int = 3,
                   commands_per_client: int = 8, conflict_rate: float = 0.3,
                   seed: int = 1, deadline_ms: float = 120_000.0) -> ClusterRun:
    """Replay the loopback workload in the discrete-event simulator.

    Same seed, same :func:`~repro.workload.clients.build_pool`, same
    client-to-replica assignment as :func:`run_loopback` — every replica must
    execute the same commands in both runs, which is exactly what the oracle
    tests assert.
    """
    from repro.harness.cluster import ClusterConfig, build_cluster
    from repro.sim.topology import lan_topology

    cluster = build_cluster(ClusterConfig(protocol=protocol,
                                          topology=lan_topology(replicas),
                                          seed=seed))
    pool = build_pool([cluster.replicas[i % replicas] for i in range(clients)],
                      WorkloadConfig(conflict_rate=conflict_rate), cluster.sim,
                      MetricsCollector(warmup_ms=0.0), max_commands=commands_per_client)

    expected = clients * commands_per_client
    cluster.start()
    pool.start_all()
    cluster.sim.run_until(
        lambda: (pool.total_completed >= expected
                 and all(r.commands_executed >= expected for r in cluster.replicas)),
        deadline=deadline_ms)
    return ClusterRun.of(protocol, expected, pool.total_completed, cluster.replicas)
