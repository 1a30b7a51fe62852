"""In-process loopback cluster: N TCP replicas sharing one event loop.

:class:`LoopbackCluster` runs N :class:`~repro.net.replica.ReplicaServer`\\ s
in ONE event loop in ONE process, on real localhost TCP sockets (pre-bound to
port 0, so no fixed ports and no port races): real framing, real partial
reads, real asyncio scheduling — but fast to start, easy to fault-inject
(``crash`` flips the hosted replica in place) and with direct access to every
replica's execution log.  ``start()`` returns once every replica has dialed
every other, so the first command finds the mesh up.  The TCP benchmark
workload runs its replicas this way, and so do the socket tests.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Dict

from repro.net.replica import ReplicaConfig, ReplicaServer
from repro.net.transport import ReconnectPolicy

#: Fast re-dial for single-host loops: crashes should heal in tens of ms.
LOOPBACK_RECONNECT = ReconnectPolicy(initial_ms=20.0, factor=1.5, max_ms=200.0,
                                     connect_timeout_s=2.0)


class LoopbackCluster:
    """N replica servers sharing one event loop over localhost TCP."""

    def __init__(self, protocol: str, replicas: int, seed: int) -> None:
        sockets = []
        for _ in range(replicas):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        self.peers = {i: ("127.0.0.1", sock.getsockname()[1])
                      for i, sock in enumerate(sockets)}
        self.servers: Dict[int, ReplicaServer] = {
            i: ReplicaServer(
                ReplicaConfig(node_id=i, peers=self.peers, protocol=protocol, seed=seed),
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
