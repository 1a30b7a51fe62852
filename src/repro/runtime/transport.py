"""The transport seam between protocol replicas and the world.

Replicas talk to a :class:`Transport`, never to the network directly: the
transport owns outgoing I/O, batching, and the replica's timer service, and
can be swapped for a different backend without touching protocol code.
:meth:`Transport.send` and :meth:`Transport.broadcast` are the only way a
message leaves a replica (``Node.send`` / ``Node.broadcast`` are a crash gate
in front of them), so a batch, a fault filter or a closed transport governs
every message.  Two backends implement the contract:

* :class:`SimulatorTransport` — messages and timers go through the shared
  discrete-event :class:`~repro.sim.network.Network` / simulator (the
  oracle: deterministic, seedable, byte-identical across runs);
* :class:`~repro.net.transport.AsyncioTransport` — the same wire messages
  travel length-prefixed over real TCP sockets between replica processes,
  and timers map onto the asyncio event loop (the measurement path).

Lifecycle contract
------------------

Every transport moves through the same three phases, verified for both
backends by one conformance suite (``tests/test_transport_contract.py``):

1. **construction** — the transport is bound to its owning replica; no I/O
   happens yet, but :attr:`Transport.node_ids` and timers must already work
   (protocols arm timers from their constructors).
2. **started** — after :meth:`Transport.start`, ``send`` / ``broadcast``
   deliver (or begin attempting to deliver) messages.  ``start`` is
   idempotent.  Calling ``send`` before ``start`` must not raise: the
   simulator backend is always live, the socket backend queues or drops
   until its connections establish — exactly the semantics of a real
   datacenter boot.
3. **closed** — after :meth:`Transport.close`, no further delivery is
   attempted and all transport-owned resources (connections, pending
   timers it manages internally) are released.  ``close`` is idempotent;
   ``send`` after ``close`` is a silent no-op (a crashed process cannot
   observe its own lost sends).

Timer service
-------------

``set_timer(delay_ms, callback, *args)`` runs ``callback(*args)`` and returns
the clock's own handle (cancelled with ``handle.cancel()``, queried with
``handle.cancelled``).  The arguments ride in the clock's event (both clocks
take ``args``), so a bound method plus its arguments needs no closure.  The
owning node applies clock skew and crash-gating *before* delegating here, so
transports only translate a plain delay onto their clock (event heap or event
loop).
Timers are how the kernel's retransmission scans and catch-up probes run
identically on both substrates.

Wire accounting
---------------

The only byte counts are the codec's and, on TCP, framed socket bytes; no
layer carries a size estimate.  When the network's
:attr:`~repro.sim.network.NetworkConfig.wire_accounting` flag is set, every
transmitted message (or batch envelope) is measured through the message
registry's codec and accumulated into the ``codec_bytes_sent`` /
``per_type_codec_bytes`` counters of the network's :class:`NetworkStats` —
what the message-footprint benchmark reports.  The flag defaults to off so
the measurement never taxes the simulation hot path.  The socket backend
encodes every message anyway, so it always accounts codec bytes, plus
``bytes_sent``: the frames its sockets took (no self-send, no dropped frame).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.batching import BatchBuffer, BatchingConfig
from repro.runtime.registry import WIRE


@dataclass
class NetworkStats:
    """Counters describing everything a network's transports did during a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_to_crashed: int = 0
    #: in-flight messages whose destination crashed (and possibly restarted)
    #: between send and delivery — the connection died with the process, so
    #: they are never delivered, even if the node is back up.
    messages_dead_in_flight: int = 0
    #: framed bytes written to sockets (TCP only; the simulator has no frames).
    bytes_sent: int = 0
    #: codec-measured bytes (filled only with ``wire_accounting`` enabled).
    codec_bytes_sent: int = 0
    per_type_codec_bytes: Dict[str, int] = field(default_factory=dict)


class Transport(abc.ABC):
    """Interface a replica uses for all outgoing communication and timers.

    See the module docstring for the full lifecycle contract.  Implementations
    must deliver ``send`` asynchronously (never re-entrantly into the
    caller's handler) and may coalesce messages (batching); ``flush_all``
    forces out anything buffered.
    """

    @property
    @abc.abstractmethod
    def node_ids(self) -> List[int]:
        """Ids of every reachable peer (including the local node)."""

    def start(self) -> None:
        """Begin delivering messages (idempotent; no-op for always-live backends)."""

    @abc.abstractmethod
    def send(self, dst: int, message: object) -> None:
        """Queue ``message`` for delivery to ``dst`` (silently dropped after close)."""

    @abc.abstractmethod
    def broadcast(self, message: object, include_self: bool = True) -> None:
        """Send ``message`` to every peer (optionally excluding the local node)."""

    @abc.abstractmethod
    def set_timer(self, delay_ms: float, callback, *args):
        """Run ``callback(*args)`` after ``delay_ms`` on this transport's clock.

        Returns the clock's cancellable handle (``cancel()`` / ``cancelled``).
        """

    def configure_batching(self, config: BatchingConfig) -> None:
        """Install (or replace) an outgoing batching policy.

        Optional capability: backends without batching raise
        ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support outgoing batching")

    def flush_all(self) -> None:
        """Transmit anything held back by batching (no-op without batching)."""

    def drop_unsent(self) -> None:
        """Forget anything held back by batching: the owning process crashed."""

    def close(self) -> None:
        """Release transport-owned resources (idempotent; sends become no-ops)."""


class SimulatorTransport(Transport):
    """Transport backend over the simulated network.

    Owns the per-destination batch buffer: messages to the same destination
    within the batching window leave as one wire message.  Self-addressed
    messages bypass batching (they never cross a real wire).

    Args:
        node: the owning node (supplies ``node_id`` and the simulator clock).
        network: the shared simulated network.
    """

    def __init__(self, node, network) -> None:
        self.node = node
        self.network = network
        #: batching policy; ``None`` (until :meth:`configure_batching`) sends eagerly.
        self.batching: Optional[BatchingConfig] = None
        self._buffer: Optional[BatchBuffer] = None
        self._flush_scheduled: Dict[int, bool] = {}
        self.measure_wire = bool(getattr(network.config, "wire_accounting", False))
        self._closed = False
        #: fault-filter seam: when installed (chaos runs only), every outgoing
        #: wire message is offered to the filter first, which may absorb it
        #: (partition/drop), duplicate it or delay it.  ``None`` costs one
        #: branch per send and keeps the default path byte-identical.
        self._fault_filter = None
        #: hot-path caches: the local address and the network's send method
        #: (both immutable for the node's lifetime).
        self._node_id = node.node_id
        self._network_send = network.send

    @property
    def node_ids(self) -> List[int]:
        return self.network.node_ids

    def configure_batching(self, config: BatchingConfig) -> None:
        """Turn on (or replace) the per-destination batching policy."""
        self.batching = config
        self._buffer = BatchBuffer(config)

    def install_fault_filter(self, faults) -> None:
        """Install (or remove, with ``None``) the nemesis link-fault filter.

        The filter object must expose ``intercept(src, dst, message) -> bool``
        returning ``True`` when it consumed the message (blocked, dropped, or
        rescheduled it itself).  Installed on every replica's transport by
        :class:`repro.chaos.nemesis.Nemesis`, so all protocols inherit every
        fault primitive through this one seam.
        """
        self._fault_filter = faults

    def set_timer(self, delay_ms: float, callback, *args):
        """Schedule ``callback(*args)`` on the shared simulator's virtual clock."""
        return self.node.sim.schedule(delay_ms, callback, args=args)

    def send(self, dst: int, message: object) -> None:
        """Send or buffer one message (self-sends are never delayed)."""
        if self._closed:
            return
        if self._buffer is None or dst == self._node_id:
            self._transmit(dst, message)
        elif self._buffer.add(dst, message):
            self._flush_destination(dst)
        elif not self._flush_scheduled.get(dst):
            self._flush_scheduled[dst] = True
            self.node.set_timer(self.batching.window_ms, self._flush_destination, dst)

    def broadcast(self, message: object, include_self: bool = True) -> None:
        """Send ``message`` to every registered node."""
        local = self._node_id
        for dst in self.network.node_ids:
            if include_self or dst != local:
                self.send(dst, message)

    def flush_all(self) -> None:
        """Flush every destination's buffered batch immediately."""
        if self._buffer is None:
            return
        for dst in self._buffer.destinations():
            self._flush_destination(dst)

    def close(self) -> None:
        """Flush pending batches, then stop delivering."""
        if self._closed:
            return
        self.flush_all()
        self._closed = True

    def drop_unsent(self) -> None:
        """Discard buffered batches and their flush flags (the node crashed).

        The flush timers armed before the crash are crash-gated and will not
        run; without this a restarted node would find the flag still set and
        never arm another, and would resurrect the pre-crash messages.
        """
        if self._buffer is not None:
            self._buffer = BatchBuffer(self.batching)
        self._flush_scheduled.clear()

    def _flush_destination(self, dst: int) -> None:
        """Send the buffered batch for ``dst`` (if any) as one wire message."""
        self._flush_scheduled[dst] = False
        if self._buffer is None or not self._buffer.has_pending(dst):
            return
        self._transmit(dst, self._buffer.drain(dst))

    def _transmit(self, dst: int, message: object) -> None:
        """Hand one wire message to the network, measuring it when enabled."""
        faults = self._fault_filter
        if faults is not None and faults.intercept(self._node_id, dst, message):
            return
        if self.measure_wire:
            self._record_wire(message)
        self._network_send(self._node_id, dst, message)

    def _record_wire(self, message: object) -> None:
        """Accumulate the codec-measured size of one transmitted message."""
        stats = self.network.stats
        encoded = WIRE.wire_size(message)
        stats.codec_bytes_sent += encoded
        type_name = type(message).__name__
        per_type = stats.per_type_codec_bytes
        per_type[type_name] = per_type.get(type_name, 0) + encoded
