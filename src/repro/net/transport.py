"""Asyncio TCP transport: the real-socket backend of the Transport contract.

One :class:`AsyncioTransport` serves one replica process.  Outgoing traffic
uses one TCP connection per destination peer, dialed by this side and
re-dialed with capped exponential backoff whenever it drops; incoming
traffic arrives on connections the *peer* dialed (accepted by the replica
server), so every directed link ``A -> B`` is its own connection, exactly
like the directed links of the simulated network.

Messages are encoded once through the canonical registry codec
(:data:`repro.runtime.registry.WIRE`) and framed with a 4-byte length prefix
(:mod:`repro.net.framing`).  While a destination is unreachable its messages
are *dropped*, not queued: that is the UDP-like contract the protocol kernel
already survives — the PR-6 retransmission + catch-up layer turns the loss
into latency, over sockets exactly as it does under the nemesis loss faults.

:class:`PeerNetwork` is the socket-world counterpart of the simulated
:class:`~repro.sim.network.Network`: the same ``node_ids`` / ``register`` /
``stats`` surface (so the kernel runs unchanged) plus the transport-factory
hook that hands replicas an :class:`AsyncioTransport`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.clock import WallClock
from repro.net.framing import encode_frame
from repro.net.wire import ROLE_REPLICA, Hello
from repro.runtime.clock import Timer
from repro.runtime.registry import WIRE
from repro.runtime.transport import Transport
from repro.sim.network import NetworkConfig, NetworkStats

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
    """Socket-world peer map satisfying the kernel's network duck-type.

    Args:
        clock: the replica's :class:`~repro.net.clock.WallClock`.
        local_id: this process's replica id (must appear in ``peers``).
        peers: replica id -> ``(host, port)`` listen address.
    """

    def __init__(self, clock: WallClock, local_id: int,
                 peers: Dict[int, Tuple[str, int]],
                 reconnect: Optional[ReconnectPolicy] = None) -> None:
        if local_id not in peers:
            raise ValueError(f"local replica {local_id} missing from peer map {sorted(peers)}")
        self.clock = clock
        self.local_id = local_id
        self.peers = dict(peers)
        #: all replica ids in the peer map, ascending (fixed at construction).
        self.node_ids: List[int] = sorted(self.peers)
        self.reconnect = reconnect or ReconnectPolicy()
        self.stats = NetworkStats()
        self.config = NetworkConfig()
        self._nodes: Dict[int, object] = {}

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
        """Hand an inbound (or self-addressed) message to the hosted replica."""
        node = self._nodes.get(self.local_id)
        if node is None or node.crashed:
            self.stats.messages_to_crashed += 1
            return
        self.stats.messages_delivered += 1
        node.receive(src, message)


class PeerConnection:
    """One outgoing directed link: dial, hello, keep alive, re-dial on loss."""

    def __init__(self, network: PeerNetwork, dst: int) -> None:
        self.network = network
        self.dst = dst
        self.host, self.port = network.peers[dst]
        self.policy = network.reconnect
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connects = 0
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
        return self.writer is not None

    def send_frame(self, frame: bytes) -> bool:
        """Write one frame if connected and not stalled; ``False`` = dropped."""
        writer = self.writer
        if writer is None:
            return False
        if writer.transport.get_write_buffer_size() > WRITE_BUFFER_LIMIT:
            return False
        try:
            writer.write(frame)
        except (ConnectionError, RuntimeError):
            self.writer = None
            return False
        return True

    async def _run(self) -> None:
        backoff_ms = self.policy.initial_ms
        while not self._closed:
            reader = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    timeout=self.policy.connect_timeout_s)
                writer.write(encode_frame(WIRE.encode(
                    Hello(sender=self.network.local_id, role=ROLE_REPLICA))))
                await writer.drain()
                self.writer = writer
                self.connects += 1
                backoff_ms = self.policy.initial_ms
                # The peer never sends on this directed link; a read only
                # returns at EOF / reset, i.e. when the link died.
                while True:
                    data = await reader.read(4096)
                    if not data:
                        break
            except asyncio.CancelledError:
                break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            finally:
                self._teardown_writer()
            if self._closed:
                break
            await asyncio.sleep(backoff_ms / 1000.0)
            backoff_ms = min(backoff_ms * self.policy.factor, self.policy.max_ms)

    def _teardown_writer(self) -> None:
        writer, self.writer = self.writer, None
        if writer is not None:
            try:
                writer.close()
            except RuntimeError:
                pass

    def close(self) -> None:
        """Stop reconnecting and drop the live socket (idempotent)."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
        self._teardown_writer()


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

    @property
    def node_ids(self) -> List[int]:
        return self.network.node_ids

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

    def send(self, dst: int, message: object) -> None:
        """Encode, frame and transmit one message (drop when unreachable)."""
        if self._closed:
            return
        payload = WIRE.encode(message)
        frame = encode_frame(payload)
        self._account(message, len(payload), len(frame), 1)
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
        self._account(message, len(payload), len(frame), len(destinations))
        for dst in destinations:
            self._transmit(dst, message, frame)

    def _account(self, message: object, payload_bytes: int, frame_bytes: int,
                 copies: int) -> None:
        """Count ``copies`` transmissions of one encoded message.

        The socket backend encodes every message anyway, so real codec bytes
        are always accounted — same counters the footprint benchmark reads
        from simulator runs with wire_accounting enabled.
        """
        stats = self.network.stats
        stats.messages_sent += copies
        stats.bytes_sent += frame_bytes * copies
        codec_bytes = payload_bytes * copies
        stats.codec_bytes_sent += codec_bytes
        type_name = type(message).__name__
        per_type = stats.per_type_codec_bytes
        per_type[type_name] = per_type.get(type_name, 0) + codec_bytes

    def _transmit(self, dst: int, message: object, frame: bytes) -> None:
        if dst == self._node_id:
            # Self-sends never cross the wire: straight into the local
            # receive path (which defers dispatch through the clock).
            self.network.deliver_local(dst, message)
            return
        connection = self._connections.get(dst)
        if connection is None or not connection.send_frame(frame):
            self.network.stats.messages_dropped += 1

    def set_timer(self, delay_ms: float, callback) -> Timer:
        """Arm a timer on the wall clock (asyncio event loop)."""
        return Timer(self.clock.schedule(delay_ms, callback))

    def close(self) -> None:
        """Tear down every dialed connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
