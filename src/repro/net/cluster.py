"""Single-host multiprocess cluster launcher (``repro serve``).

:class:`LocalCluster` runs each replica as a real OS process with its own
event loop, GIL and sockets — the closest single-host stand-in for the
paper's multi-node deployment.  Processes are started with the ``spawn``
method so every child begins from a clean interpreter (fresh imports, fresh
message-registry state, no inherited event loops), which also keeps
:meth:`LocalCluster.restart` safe to call from inside an asyncio test.

Multi-host deployments use the same machinery minus the launcher: run
``repro serve --node-id i`` once per host with the full ``--peer`` map, then
point ``repro loadgen`` at any subset of the replicas.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.protocols import flags_to_fields
from repro.net.client import fetch_stats
from repro.net.replica import ReplicaConfig


@dataclass
class ServeConfig:
    """Settings for launching a local N-replica cluster.

    Attributes:
        protocol: protocol name for every replica.
        replicas: cluster size (ignored when ``peers`` is given).
        seed: shared base seed (each replica forks per-node streams from it,
            with the same labels as the simulator).
        host: bind address for auto-allocated peer maps.
        peers: explicit peer map (multi-host mode); ``None`` allocates free
            localhost ports.
        recovery: enable protocol recovery machinery.
        admission: admission-control spec installed on every replica
            (``"none"``, ``"inflight:K"``, ``"deadline:MS"``).
    """

    protocol: str = "caesar"
    replicas: int = 3
    seed: int = 0
    host: str = "127.0.0.1"
    peers: Optional[Dict[int, Tuple[str, int]]] = None
    recovery: bool = False
    admission: Optional[str] = None

    @classmethod
    def from_args(cls, args, **overrides) -> "ServeConfig":
        """Build a config from CLI args (single place flags become a config)."""
        kwargs = flags_to_fields(args, "protocol", "replicas", "seed", "host",
                                 "recovery", "admission")
        peers = parse_peers(getattr(args, "peer", None) or [])
        if peers is not None:
            kwargs.update(peers=peers, replicas=len(peers))
        kwargs.update(overrides)
        return cls(**kwargs)

    def replica_config(self, node_id: int,
                       peers: Dict[int, Tuple[str, int]]) -> ReplicaConfig:
        """The config of replica ``node_id`` in a cluster with this peer map."""
        return ReplicaConfig(node_id=node_id, peers=peers, protocol=self.protocol,
                             seed=self.seed, recovery=self.recovery,
                             admission=self.admission)


def parse_peers(specs: List[str]) -> Optional[Dict[int, Tuple[str, int]]]:
    """Parse ``ID=HOST:PORT`` specs into a peer map (``None`` when empty).

    A malformed entry, a port outside 1-65535 or an id named twice is a
    ``ValueError``: a peer map that silently kept one of two entries would
    start a cluster smaller than the one asked for.
    """
    if not specs:
        return None
    peers: Dict[int, Tuple[str, int]] = {}
    for spec in specs:
        try:
            node_part, addr = spec.split("=", 1)
            host, port_part = addr.rsplit(":", 1)
            node_id, port = int(node_part), int(port_part)
        except ValueError:
            node_id = port = None
        if node_id is None or not 0 < port < 65536:
            raise ValueError(f"bad peer entry {spec!r}; expected ID=HOST:PORT "
                             "with a port in 1-65535")
        if node_id in peers:
            raise ValueError(f"bad peer entry {spec!r}; replica {node_id} is already "
                             f"at {peers[node_id][0]}:{peers[node_id][1]}")
        peers[node_id] = (host, port)
    return peers


def allocate_ports(host: str, count: int) -> List[int]:
    """Reserve ``count`` distinct free TCP ports on ``host``.

    The sockets are bound, read, then closed — a classic TOCTOU window, but
    the ports stay distinct and collisions on a quiet CI host are vanishingly
    rare (replicas bind them back within milliseconds).
    """
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def _replica_process_main(config: ReplicaConfig) -> None:
    """Entry point of one replica child process."""
    import asyncio

    from repro.net.replica import serve_replica

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await serve_replica(config, stop_event=stop)

    asyncio.run(main())


@dataclass
class LocalCluster:
    """A running single-host cluster of replica processes."""

    config: ServeConfig
    peers: Dict[int, Tuple[str, int]]
    replica_configs: Dict[int, ReplicaConfig]
    processes: Dict[int, multiprocessing.Process] = field(default_factory=dict)

    @property
    def node_ids(self) -> List[int]:
        """All replica ids, ascending."""
        return sorted(self.peers)

    def _spawn(self, node_id: int) -> None:
        process = multiprocessing.get_context("spawn").Process(
            target=_replica_process_main, args=(self.replica_configs[node_id],),
            name=f"repro-replica-{node_id}", daemon=True)
        process.start()
        self.processes[node_id] = process

    def start(self) -> None:
        """Spawn every replica process (idempotent per replica)."""
        for node_id in self.node_ids:
            if not self._alive(node_id):
                self._spawn(node_id)

    def _alive(self, node_id: int) -> bool:
        process = self.processes.get(node_id)
        return process is not None and process.is_alive()

    def wait_ready(self, timeout_s: float = 30.0,
                   node_ids: Optional[List[int]] = None) -> None:
        """Block until every replica (or each of ``node_ids``) answers a stats
        request and reports its link to every live peer up.

        A replica drops what it sends to a peer it has not dialed yet, so a
        client let in before the mesh is up pays a retransmission timeout
        for its first command.
        """
        deadline = time.monotonic() + timeout_s
        for node_id in node_ids or self.node_ids:
            host, port = self.peers[node_id]
            while True:
                try:
                    links = fetch_stats(host, port, timeout_s=1.0)["links"]
                except OSError:
                    links = None
                if links is not None and all(
                        links.get(str(peer)) for peer in self.node_ids
                        if peer != node_id and self._alive(peer)):
                    break
                if node_id in self.processes and not self._alive(node_id):
                    raise RuntimeError(
                        f"replica {node_id} exited during startup "
                        f"(exitcode {self.processes[node_id].exitcode})")
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"replica {node_id} on {host}:{port} is "
                        + ("not accepting connections" if links is None
                           else f"not linked to every live peer ({links})")
                        + f" after {timeout_s:.0f}s")
                time.sleep(0.05)

    def kill(self, node_id: int) -> None:
        """Kill one replica process abruptly (SIGKILL — a real crash)."""
        process = self.processes[node_id]
        process.kill()
        process.join(timeout=10.0)

    def restart(self, node_id: int, wait_ready_s: float = 30.0) -> None:
        """Start a fresh (amnesiac) process for a killed replica.

        The restarted replica has empty state; the kernel catch-up layer
        replays decided commands from its peers, just as in the simulator's
        crash/restart chaos schedules.
        """
        self._spawn(node_id)
        if wait_ready_s > 0:
            # The live peers' re-dials count too: until they land, what the
            # peers send to the restarted replica is dropped.
            self.wait_ready(timeout_s=wait_ready_s,
                            node_ids=[peer for peer in self.node_ids if self._alive(peer)])

    def stop(self, timeout_s: float = 10.0) -> None:
        """Terminate every replica process (idempotent)."""
        for process in self.processes.values():
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + timeout_s
        for process in self.processes.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def build_local_cluster(config: ServeConfig) -> LocalCluster:
    """Resolve the peer map and per-replica configs (without starting)."""
    if config.peers is not None:
        peers = dict(config.peers)
    else:
        ports = allocate_ports(config.host, config.replicas)
        peers = {i: (config.host, port) for i, port in enumerate(ports)}
    replica_configs = {node_id: config.replica_config(node_id, peers)
                       for node_id in peers}
    return LocalCluster(config=config, peers=peers, replica_configs=replica_configs)


def serve_cluster(config: Optional[ServeConfig] = None,
                  wait_ready_s: float = 30.0) -> LocalCluster:
    """Launch a local cluster and wait until every replica is reachable."""
    cluster = build_local_cluster(config or ServeConfig())
    cluster.start()
    cluster.wait_ready(timeout_s=wait_ready_s)
    return cluster
