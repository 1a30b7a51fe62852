"""Asyncio TCP transport: the real-socket backend of the Transport contract.

One :class:`AsyncioTransport` serves one replica process.  Outgoing traffic
uses one TCP connection per destination peer, dialed by this side and
re-dialed with capped exponential backoff whenever it drops; incoming
traffic arrives on connections the *peer* dialed (accepted by the replica
server), so every directed link ``A -> B`` is its own connection, exactly
like the directed links of the simulated network.  A link is an
:class:`asyncio.Protocol` writing straight to its socket transport; the peer
never sends on it, so the only event it waits for is ``connection_lost``.

Messages are encoded once through the canonical registry codec
(:data:`repro.runtime.registry.WIRE`) and framed with a 4-byte length prefix
(:mod:`repro.net.framing`).  While a destination is unreachable its messages
are *dropped*, not queued: that is the UDP-like contract the protocol kernel
already survives — the PR-6 retransmission + catch-up layer turns the loss
into latency, over sockets exactly as it does under the nemesis loss faults.

:class:`PeerNetwork` is the socket-world counterpart of the simulated
:class:`~repro.sim.network.Network`: the same ``node_ids`` / ``register`` /
``stats`` surface (so the kernel runs unchanged) plus the transport-factory
hook that hands replicas an :class:`AsyncioTransport`.  Its
``deliver_local`` dispatches a peer's message inline (a socket callback is
never inside a handler) and defers only self-sends: they queue in order, and
one event-loop callback delivers all that queued before it ran.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.clock import WallClock
from repro.net.framing import encode_frame
from repro.net.wire import ROLE_REPLICA, Hello
from repro.runtime.registry import WIRE
from repro.runtime.transport import NetworkStats, Transport

#: Per-connection outgoing buffer cap: above this many unsent bytes the
#: destination is considered stalled and further messages are dropped
#: (retransmission recovers them later) instead of ballooning memory.
WRITE_BUFFER_LIMIT = 4 * 1024 * 1024


@dataclass(frozen=True)
class ReconnectPolicy:
    """Backoff for re-dialing a lost peer connection."""

    initial_ms: float = 50.0
    factor: float = 2.0
    max_ms: float = 2000.0
    connect_timeout_s: float = 5.0


class PeerNetwork:
    """Socket-world peer map: the network duck-type a replica is built on.

    That is ``node_ids``, ``register``, ``create_transport`` and ``stats``.

    Args:
        clock: the replica's :class:`~repro.net.clock.WallClock`.
        local_id: this process's replica id (must appear in ``peers``).
        peers: replica id -> ``(host, port)`` listen address.
    """

    def __init__(self, clock: WallClock, local_id: int,
                 peers: Dict[int, Tuple[str, int]],
                 reconnect: ReconnectPolicy) -> None:
        if local_id not in peers:
            raise ValueError(f"local replica {local_id} missing from peer map {sorted(peers)}")
        self.clock = clock
        self.local_id = local_id
        self.peers = dict(peers)
        #: all replica ids in the peer map, ascending (fixed at construction).
        self.node_ids: List[int] = sorted(self.peers)
        self.reconnect = reconnect
        self.stats = NetworkStats()
        self._nodes: Dict[int, object] = {}
        #: self-sends not yet delivered, in send order; the first one into an
        #: empty queue schedules :meth:`_deliver_self_sends`.
        self._self_sends: List[object] = []

    def register(self, node) -> None:
        """Attach the locally hosted replica (the only node in this process)."""
        if node.node_id != self.local_id:
            raise ValueError(f"node {node.node_id} registered on the peer network "
                             f"of replica {self.local_id}")
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def create_transport(self, node) -> "AsyncioTransport":
        """Transport-factory hook used by :class:`~repro.sim.node.Node`."""
        return AsyncioTransport(node, self)

    def deliver_local(self, src: int, message: object) -> None:
        """Hand an inbound (or self-addressed) message to the hosted replica.

        A message from a peer arrives in a socket callback, which is never
        inside a handler, and there is no simulated CPU to queue on: it is
        dispatched before this returns.  A self-send is issued from inside a
        handler, so it is queued instead, behind the self-sends before it,
        and the handler is never re-entered: the first self-send of a burst
        schedules one event-loop callback, which delivers every self-send
        queued by the time it runs.
        """
        node = self._nodes.get(self.local_id)
        if node is None or node.crashed:
            self.stats.messages_to_crashed += 1
            return
        self.stats.messages_delivered += 1
        if src != self.local_id:
            node._dispatch_one(src, message)
            return
        if not self._self_sends:
            self.clock.loop.call_soon(self._deliver_self_sends)
        self._self_sends.append(message)

    def _deliver_self_sends(self) -> None:
        """Dispatch the queued self-sends in order (the event-loop callback).

        A self-send made by one of their handlers starts the next burst.
        """
        burst, self._self_sends = self._self_sends, []
        node = self._nodes[self.local_id]
        for message in burst:
            node._dispatch_one(self.local_id, message)

    def drop_self_sends(self) -> None:
        """Forget the self-sends not yet delivered: the replica crashed or closed."""
        self._self_sends = []


class PeerConnection(asyncio.Protocol):
    """One outgoing directed link: dial, hello, keep alive, re-dial on loss."""

    def __init__(self, network: PeerNetwork, dst: int) -> None:
        self.network = network
        self.dst = dst
        self.host, self.port = network.peers[dst]
        self.policy = network.reconnect
        self.transport: Optional[asyncio.Transport] = None
        self.connects = 0
        self._lost = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    def start(self) -> None:
        """Begin (re)connecting in the background (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"peer-{self.network.local_id}->{self.dst}")

    @property
    def connected(self) -> bool:
        """Whether a live socket to the peer currently exists."""
        return self.transport is not None

    def send_frame(self, frame: bytes) -> bool:
        """Write one frame if connected and not stalled; ``False`` = dropped."""
        transport = self.transport
        if transport is None or transport.get_write_buffer_size() > WRITE_BUFFER_LIMIT:
            return False
        transport.write(frame)
        return True

    def connection_made(self, transport: asyncio.Transport) -> None:
        transport.write(encode_frame(WIRE.encode(
            Hello(sender=self.network.local_id, role=ROLE_REPLICA))))
        self.transport = transport
        self.connects += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self._lost.set()

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        backoff_ms = self.policy.initial_ms
        while True:
            self._lost.clear()
            try:
                await asyncio.wait_for(
                    loop.create_connection(lambda: self, self.host, self.port),
                    timeout=self.policy.connect_timeout_s)
                backoff_ms = self.policy.initial_ms
                await self._lost.wait()
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            if self._closed:
                # close() cancels this task, but ``wait_for`` swallows the
                # cancellation when the dial has failed in the same loop turn.
                break
            await asyncio.sleep(backoff_ms / 1000.0)
            backoff_ms = min(backoff_ms * self.policy.factor, self.policy.max_ms)

    def close(self) -> None:
        """Stop reconnecting and drop the live socket (idempotent)."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()


class AsyncioTransport(Transport):
    """Transport over real TCP sockets (see the module docstring).

    Lifecycle: constructed with the replica (timers work immediately via the
    wall clock), :meth:`start` dials every peer, :meth:`close` tears the
    dialed connections down.  Sends before the dial completes — or while a
    peer is down — are dropped and counted in ``network.stats``.
    """

    def __init__(self, node, network: PeerNetwork) -> None:
        self.node = node
        self.network = network
        self.clock = network.clock
        self._node_id = node.node_id
        self._connections: Dict[int, PeerConnection] = {}
        self._started = False
        self._closed = False

    def start(self) -> None:
        """Dial every remote peer (idempotent)."""
        if self._started or self._closed:
            return
        self._started = True
        for dst in self.network.node_ids:
            if dst == self._node_id:
                continue
            connection = PeerConnection(self.network, dst)
            self._connections[dst] = connection
            connection.start()

    def connection(self, dst: int) -> Optional[PeerConnection]:
        """The outgoing connection towards ``dst`` (``None`` before start)."""
        return self._connections.get(dst)

    def links(self) -> Dict[int, bool]:
        """Peer id -> whether the outgoing link towards it is up right now."""
        return {dst: connection.connected
                for dst, connection in self._connections.items()}

    def send(self, dst: int, message: object) -> None:
        """Encode, frame and transmit one message (drop when unreachable)."""
        if self._closed:
            return
        payload = WIRE.encode(message)
        frame = encode_frame(payload)
        self._account(message, len(payload), 1)
        self._transmit(dst, message, frame)

    def broadcast(self, message: object, include_self: bool = True) -> None:
        """Send to every peer, encoding and accounting the message exactly once."""
        if self._closed:
            return
        payload = WIRE.encode(message)
        frame = encode_frame(payload)
        local = self._node_id
        destinations = [dst for dst in self.network.node_ids
                        if include_self or dst != local]
        self._account(message, len(payload), len(destinations))
        for dst in destinations:
            self._transmit(dst, message, frame)

    def _account(self, message: object, payload_bytes: int, copies: int) -> None:
        """Count ``copies`` transmissions of one encoded message.

        The socket backend encodes every message anyway, so real codec bytes
        are always accounted, self-copies included (``bench/worker.py`` and
        the serve soak read these counters).
        """
        stats = self.network.stats
        stats.messages_sent += copies
        codec_bytes = payload_bytes * copies
        stats.codec_bytes_sent += codec_bytes
        type_name = type(message).__name__
        per_type = stats.per_type_codec_bytes
        per_type[type_name] = per_type.get(type_name, 0) + codec_bytes

    def _transmit(self, dst: int, message: object, frame: bytes) -> None:
        if dst == self._node_id:
            # Self-sends never cross the wire: straight into the local
            # delivery queue.
            self.network.deliver_local(dst, message)
            return
        connection = self._connections.get(dst)
        if connection is not None and connection.send_frame(frame):
            self.network.stats.bytes_sent += len(frame)
        else:
            self.network.stats.messages_dropped += 1

    def set_timer(self, delay_ms: float, callback, *args):
        """Arm a timer running ``callback(*args)`` on the wall clock (asyncio event loop)."""
        return self.clock.schedule(delay_ms, callback, args=args)

    def drop_unsent(self) -> None:
        """Forget the queued self-sends: the replica crashed."""
        self.network.drop_self_sends()

    def close(self) -> None:
        """Tear down every dialed connection and forget the queued self-sends
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.network.drop_self_sends()
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
