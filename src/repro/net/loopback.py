"""In-process loopback cluster + simulator oracle for equivalence tests.

The loopback harness runs N :class:`~repro.net.replica.ReplicaServer`\\ s in
ONE event loop in ONE process, on real localhost TCP sockets (pre-bound to
port 0, so no fixed ports and no port races).  It exists for tests: real
framing, real partial reads, real asyncio scheduling — but fast to start,
easy to fault-inject (``crash`` flips the hosted replica in place) and with
direct access to every replica's execution log.  ``start()`` returns once
every replica has dialed every other, so the first command finds the mesh up.

:func:`run_loopback` and :func:`run_sim_oracle` replay the *same* seeded
workload — identical RNG fork labels, identical client-to-replica
assignment — over sockets and in the discrete-event simulator respectively,
so their executed command sets must match exactly.  That is the oracle
equivalence the tier-1 suite checks for every protocol.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import MetricsCollector
from repro.net.client import RemoteReplica
from repro.net.clock import WallClock
from repro.net.replica import ReplicaConfig, ReplicaServer
from repro.net.transport import ReconnectPolicy
from repro.sim.random import DeterministicRandom
from repro.workload.clients import ClientPool, ClosedLoopClient
from repro.workload.generator import ConflictWorkload, WorkloadConfig

#: Fast re-dial for single-host loops: crashes should heal in tens of ms.
LOOPBACK_RECONNECT = ReconnectPolicy(initial_ms=20.0, factor=1.5, max_ms=200.0,
                                     connect_timeout_s=2.0)


@dataclass
class ClusterRun:
    """Executed state of one cluster run (either substrate).

    ``executed`` maps replica id to its execution-log command ids in order;
    ``violations`` counts pairwise conflicting-order violations between all
    replica logs (must be 0 for a correct run).
    """

    protocol: str
    expected: int
    completed: int
    executed: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    violations: int = 0
    stats: Dict[int, Dict[str, object]] = field(default_factory=dict)

    @property
    def executed_sets(self) -> Dict[int, frozenset]:
        """Executed command ids per replica, as comparable sets."""
        return {node_id: frozenset(ids) for node_id, ids in self.executed.items()}


class LoopbackCluster:
    """N replica servers sharing one event loop over localhost TCP."""

    def __init__(self, protocol: str, replicas: int = 3, seed: int = 0,
                 recovery: bool = False) -> None:
        self.protocol = protocol
        self.seed = seed
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

    def snapshot(self, completed: int) -> ClusterRun:
        """Capture executed logs + stats into a :class:`ClusterRun`."""
        run = ClusterRun(protocol=self.protocol, expected=completed, completed=completed)
        logs = {}
        for node_id, server in sorted(self.servers.items()):
            log = server.replica.execution_log
            logs[node_id] = log
            run.executed[node_id] = [c.command_id for c in log]
            run.stats[node_id] = server.stats_payload()
        run.violations = _pairwise_violations(logs)
        return run


def _pairwise_violations(logs: Dict[int, object]) -> int:
    """Total conflicting-order violations across all replica-log pairs."""
    ids = sorted(logs)
    return sum(len(logs[a].conflicting_order_violations(logs[b]))
               for i, a in enumerate(ids) for b in ids[i + 1:])


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
    killed = False

    def _kill_now() -> None:
        nonlocal killed
        killed = True
        server = cluster.servers[kill_replica]
        server.crash()
        loop.create_task(server.stop())

    if kill_replica is not None:
        metrics: MetricsCollector = _KillAfter(kill_after_commands, _kill_now)
    else:
        metrics = MetricsCollector(warmup_ms=0.0)
    workload_config = WorkloadConfig(conflict_rate=conflict_rate)
    base_rng = DeterministicRandom(seed)
    replica_ids = sorted(cluster.peers)
    surviving_ids = [i for i in replica_ids if i != kill_replica]

    pool = ClientPool()
    remotes: List[RemoteReplica] = []
    try:
        for client_id in range(clients):
            replica_id = replica_ids[client_id % len(replica_ids)]
            host, port = cluster.peers[replica_id]
            remote = RemoteReplica(replica_id, host, port, client_id=client_id)
            await remote.connect()
            remotes.append(remote)
            workload = ConflictWorkload(client_id=client_id, origin=replica_id,
                                        config=workload_config,
                                        rng=base_rng.fork(f"client-{client_id}"))
            fallbacks = None
            reconnect_ms = None
            if kill_replica is not None:
                # Clients of the doomed replica fail over to a survivor.  The
                # retry timeout must exceed the leader's fast-proposal timeout
                # plus a slow round: a command proposed in the suspicion
                # window pays that full fallback latency, and abandoning it a
                # hair earlier discards the reply and restarts the cycle.
                fallbacks = [_Redialer(remotes, cluster, i) for i in surviving_ids]
                reconnect_ms = 3000.0
            pool.add(ClosedLoopClient(client_id, remote, workload, clock, metrics,
                                      max_commands=commands_per_client,
                                      reconnect_timeout_ms=reconnect_ms,
                                      fallback_replicas=fallbacks))

        expected = clients * commands_per_client
        deadline = loop.time() + timeout_s
        pool.start_all()
        while loop.time() < deadline:
            if pool.total_completed >= expected:
                break
            await asyncio.sleep(0.02)

        # Drain: every *live* replica must execute every completed command.
        live = surviving_ids if killed else replica_ids
        while loop.time() < deadline:
            if all(cluster.servers[i].replica.commands_executed >= pool.total_completed
                   for i in live):
                break
            await asyncio.sleep(0.02)

        run = ClusterRun(protocol=protocol, expected=expected,
                         completed=pool.total_completed)
        logs = {}
        for node_id in live:
            log = cluster.servers[node_id].replica.execution_log
            logs[node_id] = log
            run.executed[node_id] = [c.command_id for c in log]
            run.stats[node_id] = cluster.servers[node_id].stats_payload()
        run.violations = _pairwise_violations(logs)
        return run
    finally:
        for remote in remotes:
            await remote.close()
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


class _Redialer:
    """Lazy fallback target: dials the survivor only if a client fails over."""

    def __init__(self, remotes: List[RemoteReplica], cluster: LoopbackCluster,
                 node_id: int) -> None:
        self._remotes = remotes
        self._cluster = cluster
        self.node_id = node_id
        self._remote: Optional[RemoteReplica] = None

    @property
    def crashed(self) -> bool:
        return self._remote.crashed if self._remote is not None else False

    def submit(self, command, callback=None) -> None:
        if self._remote is None or self._remote.crashed:
            host, port = self._cluster.peers[self.node_id]
            self._remote = RemoteReplica(self.node_id, host, port,
                                         client_id=1000 + self.node_id)
            self._remotes.append(self._remote)
            task = asyncio.get_running_loop().create_task(self._remote.connect())
            # Submit once the dial lands (commands are idempotent to retry
            # from the client's point of view: closed-loop re-submission).
            task.add_done_callback(
                lambda _t: self._remote.submit(command, callback))
            return
        self._remote.submit(command, callback)


def run_sim_oracle(protocol: str, replicas: int = 3, clients: int = 3,
                   commands_per_client: int = 8, conflict_rate: float = 0.3,
                   seed: int = 1, deadline_ms: float = 120_000.0) -> ClusterRun:
    """Replay the loopback workload in the discrete-event simulator.

    Same seed, same fork labels, same client-to-replica assignment as
    :func:`run_loopback` — the executed command sets of the two runs must be
    identical, which is exactly what the oracle tests assert.
    """
    from repro.harness.cluster import ClusterConfig, build_cluster
    from repro.sim.topology import lan_topology

    cluster = build_cluster(ClusterConfig(protocol=protocol,
                                          topology=lan_topology(replicas),
                                          seed=seed))
    metrics = MetricsCollector(warmup_ms=0.0)
    workload_config = WorkloadConfig(conflict_rate=conflict_rate)
    base_rng = DeterministicRandom(seed)
    pool = ClientPool()
    for client_id in range(clients):
        replica = cluster.replicas[client_id % len(cluster.replicas)]
        workload = ConflictWorkload(client_id=client_id, origin=replica.node_id,
                                    config=workload_config,
                                    rng=base_rng.fork(f"client-{client_id}"))
        pool.add(ClosedLoopClient(client_id, replica, workload, cluster.sim, metrics,
                                  max_commands=commands_per_client))

    expected = clients * commands_per_client
    for replica in cluster.replicas:
        replica.start()
    pool.start_all()
    cluster.sim.run_until(
        lambda: (pool.total_completed >= expected
                 and all(r.commands_executed >= expected for r in cluster.replicas)),
        deadline=deadline_ms)

    run = ClusterRun(protocol=protocol, expected=expected,
                     completed=pool.total_completed)
    logs = {}
    for replica in cluster.replicas:
        logs[replica.node_id] = replica.execution_log
        run.executed[replica.node_id] = [c.command_id for c in replica.execution_log]
    run.violations = _pairwise_violations(logs)
    return run
