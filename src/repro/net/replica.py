"""One consensus replica behind a TCP listener.

:class:`ReplicaServer` hosts exactly the replica objects the simulator
harness builds — same :func:`~repro.harness.protocols.build_replica`,
same kernel, same retransmission/catch-up machinery — wired to a
:class:`~repro.net.clock.WallClock` and an
:class:`~repro.net.transport.AsyncioTransport` instead of the discrete-event
substrate.  The server accepts three kinds of connections, told apart by the
mandatory :class:`~repro.net.wire.Hello` first frame:

* **replica** — inbound protocol traffic from a peer; every subsequent frame
  is decoded and dispatched into the kernel with the peer's id as ``src``;
* **client** — :class:`~repro.net.wire.ClientRequest` frames are submitted
  for ordering and answered with :class:`~repro.net.wire.ClientReply` on the
  same connection once the command executes;
* **control** — :class:`~repro.net.wire.StatsRequest` frames are answered
  with a JSON statistics snapshot (also honoured on client connections).

Every accepted connection is an :class:`asyncio.Protocol` object: the event
loop hands it the bytes it read, and the frames in them are decoded and
routed — a peer's message all the way into its kernel handler — inside that
one callback.  No task, stream reader or deferred hop sits in between.

The CPU cost model defaults to :func:`~repro.runtime.costs.zero_cost_model`:
over real sockets the process burns *actual* CPU, so simulating it on top
would double-count.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.consensus.command import KeyBindingError
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import TimestampRangeError
from repro.harness.protocols import build_replica, constructor_options
from repro.net.clock import WallClock
from repro.net.framing import FrameDecoder, FramingError, encode_frame
from repro.net.transport import PeerNetwork, ReconnectPolicy
from repro.net.wire import (ROLE_CLIENT, ROLE_CONTROL, ROLE_NAMES, ROLE_REPLICA,
                            ClientReply, ClientRequest, Hello, StatsReply,
                            StatsRequest)
from repro.runtime.costs import zero_cost_model
from repro.runtime.registry import WIRE, WireDecodeError


@dataclass
class ReplicaConfig:
    """Everything one replica process needs to join a cluster.

    Attributes:
        node_id: this replica's id (must be a key of ``peers``).
        peers: replica id -> ``(host, port)`` listen address for the whole
            cluster, this replica included.
        protocol: name in :data:`~repro.harness.protocols.PROTOCOLS`.
        seed: seed for the replica's deterministic RNG forks (same labels as
            the simulator, so stochastic choices match across substrates).
        recovery: enable the protocol's recovery machinery (failure detector
            + recovery proposals), as ``--recovery`` does in the simulator.
        admission: admission-control spec guarding the client submit path
            (``"none"``, ``"inflight:K"``, ``"deadline:MS"``; ``None`` = no
            hook) — same policies the simulator harness installs.
    """

    node_id: int
    peers: Dict[int, Tuple[str, int]]
    protocol: str = "caesar"
    seed: int = 0
    recovery: bool = False
    admission: Optional[str] = None


class ReplicaServer:
    """A protocol replica listening on a TCP socket (see module docstring).

    Args:
        config: the replica's identity, peer map and protocol settings.
        server_socket: optional pre-bound listening socket (used by the
            in-process loopback harness to bind port 0 before peer maps are
            exchanged); when omitted the server binds the address from the
            peer map.
        reconnect: outbound dial/backoff policy override.
    """

    def __init__(self, config: ReplicaConfig, *, server_socket=None,
                 reconnect: Optional[ReconnectPolicy] = None) -> None:
        self.config = config
        self._server_socket = server_socket
        self._reconnect = reconnect
        self.clock: Optional[WallClock] = None
        self.network: Optional[PeerNetwork] = None
        self.replica = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._accepted: set = set()
        self._started = False
        self._closed = False

    async def start(self) -> None:
        """Build the replica and start listening + dialing (call once)."""
        if self._started:
            return
        self._started = True
        config = self.config
        loop = asyncio.get_running_loop()
        self.clock = WallClock(seed=config.seed, loop=loop)
        self.network = PeerNetwork(self.clock, config.node_id, config.peers,
                                   reconnect=self._reconnect)
        self.replica = build_replica(
            config.protocol, config.node_id, self.clock, self.network,
            QuorumSystem.for_cluster(len(config.peers)),
            constructor_options(config.protocol, config.recovery),
            cost_model=zero_cost_model(), admission=config.admission)
        if self._server_socket is not None:
            self._server = await loop.create_server(
                lambda: _AcceptedConnection(self), sock=self._server_socket)
        else:
            host, port = config.peers[config.node_id]
            self._server = await loop.create_server(
                lambda: _AcceptedConnection(self), host, port)
        self.replica.transport.start()
        self.replica.start()

    def _handshake(self, message: object) -> Hello:
        """Check a connection's first frame; a violation closes it like bad framing."""
        if not isinstance(message, Hello):
            raise FramingError(f"first frame must be Hello, got {type(message).__name__}")
        if message.role == ROLE_REPLICA and (message.sender == self.config.node_id
                                             or message.sender not in self.config.peers):
            # ``deliver_local`` tells a self-send from a peer's message by
            # ``src``, so a connection may not claim the local id.
            raise FramingError(f"replica hello from {message.sender}, which is not a peer")
        return message

    def _dispatch(self, hello: Hello, message: object,
                  writer: asyncio.Transport) -> None:
        """Route one decoded frame according to the connection's role."""
        if isinstance(message, StatsRequest):
            reply = StatsReply(sender=self.config.node_id,
                               payload=json.dumps(self.stats_payload(
                                   include_executed=bool(message.include_executed))))
            writer.write(encode_frame(WIRE.encode(reply)))
            return
        if hello.role == ROLE_REPLICA:
            self.network.deliver_local(hello.sender, message)
            return
        if hello.role == ROLE_CLIENT and isinstance(message, ClientRequest):
            self._submit(message.command, writer)
            return
        raise FramingError(f"unexpected {type(message).__name__} on a "
                           f"{ROLE_NAMES.get(hello.role, hello.role)} connection")

    def _submit(self, command, writer: asyncio.Transport) -> None:
        """Submit a client command; answer on ``writer`` once executed."""

        def on_executed(result) -> None:
            if writer.is_closing():
                return
            reply = ClientReply(command_id=command.command_id, value=result.value,
                                rejected=int(result.rejected))
            writer.write(encode_frame(WIRE.encode(reply)))

        self.replica.submit(command, callback=on_executed)

    def stats_payload(self, include_executed: bool = False) -> Dict[str, object]:
        """Statistics snapshot mirroring the simulator harness report shapes."""
        replica = self.replica
        stats = self.network.stats
        payload: Dict[str, object] = {
            "node_id": self.config.node_id,
            "protocol": self.config.protocol,
            "uptime_ms": self.clock.now,
            "commands_executed": replica.commands_executed,
            "messages_handled": replica.messages_handled,
            "stats": dict(replica.stats.non_zero()),
            "admission": (replica.admission.stats.as_dict()
                          | {"policy": replica.admission.describe()}
                          if replica.admission is not None else None),
            "links": replica.transport.links(),
            "network": {
                "messages_sent": stats.messages_sent,
                "messages_delivered": stats.messages_delivered,
                "messages_dropped": stats.messages_dropped,
                "bytes_sent": stats.bytes_sent,
                "codec_bytes_sent": stats.codec_bytes_sent,
                "per_type_codec_bytes": dict(stats.per_type_codec_bytes),
            },
        }
        if include_executed:
            payload["executed"] = [list(c.command_id) for c in replica.execution_log]
        return payload

    @property
    def port(self) -> int:
        """The port the server is actually listening on (after :meth:`start`)."""
        return self._server.sockets[0].getsockname()[1]

    def crash(self) -> None:
        """Mark the hosted replica crashed (in-process fault injection)."""
        self.replica.crash()

    async def stop(self) -> None:
        """Stop listening, tear down peer connections (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            # Since Python 3.12.1 ``wait_closed`` waits for every accepted
            # connection to end, so they are closed before it is awaited.
            for transport in self._accepted:
                transport.close()
            await self._server.wait_closed()
        if self.replica is not None:
            self.replica.transport.close()


class _AcceptedConnection(asyncio.Protocol):
    """One accepted connection: each frame is decoded and routed in the
    event-loop callback that read it, until EOF / error.

    A peer that breaks the framing, sends undecodable bytes, names a
    command on two keys or sends a timestamp whose node id does not fit in
    32 bits loses this connection; the replica keeps serving every other one.
    """

    def __init__(self, server: ReplicaServer) -> None:
        self.server = server
        self.decoder = FrameDecoder()
        self.hello: Optional[Hello] = None
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._accepted.add(transport)

    def data_received(self, data: bytes) -> None:
        server = self.server
        try:
            for payload in self.decoder.feed(data):
                message = WIRE.decode_one(payload)
                if self.hello is None:
                    self.hello = server._handshake(message)
                else:
                    server._dispatch(self.hello, message, self.transport)
        except (FramingError, WireDecodeError, KeyBindingError, TimestampRangeError):
            self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._accepted.discard(self.transport)


async def serve_replica(config: ReplicaConfig,
                        ready: Optional[Callable[[ReplicaServer], None]] = None,
                        stop_event: Optional[asyncio.Event] = None) -> None:
    """Run one replica until ``stop_event`` is set (or forever)."""
    server = ReplicaServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        if stop_event is None:
            await asyncio.Event().wait()
        else:
            await stop_event.wait()
    finally:
        await server.stop()
