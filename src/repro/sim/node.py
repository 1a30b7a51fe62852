"""Simulated process abstraction.

A :class:`Node` is one replica of a protocol.  It provides:

* message sending/broadcast through the one
  :class:`~repro.runtime.transport.Transport` its network hands it — every
  message leaves through ``transport.send`` / ``transport.broadcast``, which is
  where batching, the fault filter and wire accounting are decided;
* a serial CPU: incoming messages are processed one at a time, each charging
  the cost given by the node's :class:`~repro.runtime.costs.CostModel`, so that a
  node under load builds a queue and saturates (this is what bounds
  throughput in the Figure 8/9 experiments);
* timers (:meth:`set_timer`);
* crash and restart hooks used by the recovery experiment (Figure 12).

Protocol implementations subclass :class:`Node` and implement
:meth:`handle_message`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.batching import BatchingConfig, MessageBatch
from repro.runtime.clock import Clock
from repro.runtime.costs import CostModel


class Node:
    """Base class for all simulated replicas.

    Args:
        node_id: index of this node within the cluster (also its network address).
        sim: the substrate's clock (``Simulator`` or ``WallClock``).
        network: the substrate's transport factory (``Network`` or
            ``PeerNetwork``); the node registers itself on construction.
        cost_model: CPU cost model; ``None`` means a default (cheap) model.
    """

    def __init__(self, node_id: int, sim: Clock, network,
                 cost_model: Optional[CostModel] = None) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.cost_model = cost_model or CostModel()
        self.crashed = False
        #: virtual time of the most recent crash; the network drops in-flight
        #: messages that were sent before this instant.
        self.last_crashed_at = -1.0
        #: local-clock rate relative to virtual time: every timer delay is
        #: multiplied by this factor (1.0 = perfect clock; the nemesis clock
        #: skew fault raises or lowers it).
        self.timer_scale = 1.0
        self._cpu_free_at = 0.0
        self.cpu_busy_ms = 0.0
        self.messages_handled = 0
        # Resolved once for :meth:`receive`'s handle-free dispatch push; only
        # the simulator clock has an event queue (``None`` on a WallClock,
        # whose messages never enter ``receive``).
        self._dispatch_queue = getattr(sim, "_queue", None)
        # The network acts as the transport factory: the simulated Network
        # hands out SimulatorTransports, a socket-world peer map hands out
        # AsyncioTransports — so protocol constructors never name a backend.
        self.transport = network.create_transport(self)
        network.register(self)

    @property
    def batching(self) -> Optional[BatchingConfig]:
        """The transport's batching policy (``None`` when batching is off)."""
        return getattr(self.transport, "batching", None)

    # ------------------------------------------------------------------ I/O

    def send(self, dst: int, message: object) -> None:
        """Send a message to another node through the transport.

        With batching enabled, the transport buffers the message per
        destination and flushes when the batching window expires or the batch
        fills up; self-addressed messages are never delayed by batching.
        """
        if self.crashed:
            return
        self.transport.send(dst, message)

    def enable_batching(self, config: BatchingConfig) -> None:
        """Turn on per-destination batching for this node's outgoing messages."""
        self.transport.configure_batching(config)

    def broadcast(self, message: object, include_self: bool = True) -> None:
        """Send a message to every node in the cluster."""
        if self.crashed:
            return
        self.transport.broadcast(message, include_self)

    def receive(self, src: int, message: object) -> None:
        """Queue an arriving message behind the node's CPU, then dispatch it.

        Simulator only: every simulated message enters here, and no TCP
        message does (``PeerNetwork.deliver_local`` hands a peer's message,
        which arrives in a socket callback, straight to :meth:`_dispatch_one`,
        and dispatches self-sends the same way from one event-loop callback
        per burst).  The message is queued behind any CPU work already in
        progress, then dispatched to :meth:`handle_message`.
        Message batches are unpacked here: the envelope costs one full
        message, each inner message a discounted marginal cost.
        """
        if self.crashed:
            return
        cost_model = self.cost_model
        kind = type(message)
        if kind is MessageBatch:
            local = src == self.node_id
            factor = (self.batching.marginal_cost_factor
                      if self.batching is not None else 1.0)
            cost = cost_model.message_cost(message, local=local)
            cost += sum(cost_model.message_cost(inner, local=local) * factor
                        for inner in message.messages)
            dispatch, payload = self._dispatch_batch, message.messages
        else:
            # message_cost inlined: this branch runs once per simulated
            # message, and the model is three attribute reads.
            cost = cost_model.per_type_ms.get(kind.__name__, cost_model.default_cost_ms)
            if src == self.node_id:
                cost *= cost_model.self_message_factor
            dispatch, payload = self._dispatch_one, message
        now = self.sim._now
        free_at = self._cpu_free_at
        finish = (now if now > free_at else free_at) + cost
        self._cpu_free_at = finish
        self.cpu_busy_ms += cost
        # Dispatch events are never cancelled; the handle-free push skips an
        # Event allocation per message and, when the dispatch is the next
        # event, the heap as well.  ``now + (finish - now)`` preserves the
        # exact float the delay-based schedule() produced.
        self._dispatch_queue.push_transient(now + (finish - now), dispatch, (src, payload))

    def _dispatch_one(self, src: int, message: object) -> None:
        """Run one queued message through the protocol handler."""
        if self.crashed:
            return
        self.messages_handled += 1
        self.handle_message(src, message)

    def _dispatch_batch(self, src: int, messages) -> None:
        """Run a queued batch of messages through the protocol handler."""
        if self.crashed:
            return
        for inner in messages:
            self.messages_handled += 1
            self.handle_message(src, inner)

    def consume_cpu(self, milliseconds: float) -> None:
        """Charge extra CPU time to this node (e.g. dependency-graph analysis)."""
        if milliseconds <= 0:
            return
        now, free_at = self.sim.now, self._cpu_free_at
        self._cpu_free_at = (free_at if free_at > now else now) + milliseconds
        self.cpu_busy_ms += milliseconds

    @property
    def cpu_backlog_ms(self) -> float:
        """How far in the future this node's CPU is already committed."""
        return max(0.0, self._cpu_free_at - self.sim.now)

    # ---------------------------------------------------------------- timers

    def set_timer(self, delay_ms: float, callback: Callable[..., None], *args):
        """Run ``callback(*args)`` after ``delay_ms`` of local-clock time unless
        cancelled or crashed.

        The delay is measured on the node's *local* clock: with a skewed
        ``timer_scale`` the timer fires earlier (fast clock) or later (slow
        clock) than the nominal delay.  ``timer_scale == 1.0`` multiplies
        exactly, so unskewed schedules are bit-identical.  Skew and
        crash-gating are applied here; the transport only maps the resulting
        delay onto its clock (event heap or event loop).  Passing a bound
        method and its arguments, not a closure, is what keeps a timer from
        allocating one.
        """
        return self.transport.set_timer(delay_ms * self.timer_scale, self._fire_timer,
                                        callback, args)

    def _fire_timer(self, callback: Callable[..., None], args: tuple) -> None:
        """The crash gate every timer fires through."""
        if not self.crashed:
            callback(*args)

    # ----------------------------------------------------------- life cycle

    def crash(self) -> None:
        """Crash the node: it stops sending, receiving and firing timers.

        Messages already in flight towards this node are lost for good: the
        network compares its ``last_crashed_at`` against each message's send
        time, so a later restart never resurrects pre-crash traffic.  The
        same goes for what the node had batched but not yet sent.
        """
        self.crashed = True
        self.last_crashed_at = self.sim.now
        self.transport.drop_unsent()
        self.on_crash()

    def restart(self) -> None:
        """Bring a crashed node back with whatever durable state the protocol kept."""
        self.crashed = False
        self._cpu_free_at = self.sim.now
        self.on_restart()

    # ------------------------------------------------------- protocol hooks

    def handle_message(self, src: int, message: object) -> None:
        """Process one message; implemented by protocol subclasses."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Hook invoked when the node crashes (default: nothing)."""

    def on_restart(self) -> None:
        """Hook invoked when the node restarts (default: nothing)."""
