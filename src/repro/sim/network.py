"""Simulated wide-area network.

The network delivers messages between registered nodes with per-pair one-way
delays derived from a :class:`repro.sim.topology.Topology` and optional
gaussian jitter.  Crashed destination nodes silently drop messages, exactly
like a dead TCP peer would from the sender's point of view (the sender never
gets an error).  Loss, partitions, duplication and delay spikes are not the
network's business: the nemesis applies them per directed link in
:class:`repro.chaos.faults.LinkFaults`, before a message gets here.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Dict, Optional, Tuple

from repro.runtime.transport import NetworkStats, SimulatorTransport
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

#: Hard floor for any one-way delay.
MIN_DELAY_MS = 0.01


@dataclass
class NetworkConfig:
    """Tunables for the simulated network.

    Attributes:
        jitter_ms: standard deviation of gaussian jitter added to each one-way
            delay (a sampled delay is clamped at :data:`MIN_DELAY_MS`).
        wire_accounting: when ``True`` the transports also measure every
            transmitted message through the registry codec and accumulate
            the byte counts into
            :class:`~repro.runtime.transport.NetworkStats` (off by default:
            the measurement is pure accounting but costs wall-clock time).
    """

    jitter_ms: float = 0.0
    wire_accounting: bool = False


class Network:
    """Message-passing fabric connecting simulated nodes.

    Args:
        sim: the discrete-event simulator providing the clock.
        topology: per-pair latencies.
        config: jitter configuration.
    """

    def __init__(self, sim: Simulator, topology: Topology, config: Optional[NetworkConfig] = None) -> None:
        self.sim = sim
        self._queue = sim._queue
        self.topology = topology
        self.config = config or NetworkConfig()
        self.stats = NetworkStats()
        self._nodes: Dict[int, "NodeLike"] = {}
        self._rng = sim.rng.fork("network")
        #: cache of nominal per-pair one-way delays; topology latencies are
        #: immutable during a run, so the string-keyed RTT lookups are paid
        #: once per (src, dst) pair instead of once per message.
        self._nominal_delay: Dict[Tuple[int, int], float] = {}
        # Bound sampler (skips a wrapper call per message on the jitter path).
        self._gauss = self._rng.gauss
        self._node_ids_cache: Optional[list] = None

    def register(self, node: "NodeLike") -> None:
        """Attach a node so it can send and receive messages."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node
        self._node_ids_cache = None

    def create_transport(self, node: "NodeLike"):
        """Build the transport a node hosted on this network should use.

        The network is the transport factory (see
        :class:`repro.runtime.transport.Transport`): nodes built against the
        simulated network get a
        :class:`~repro.runtime.transport.SimulatorTransport`, nodes built
        against a socket-world peer map get an asyncio one — protocol code
        never chooses a backend.
        """
        return SimulatorTransport(node, self)

    @property
    def node_ids(self) -> list:
        """All registered node ids, in registration order (shared; do not mutate).

        Broadcasts read this once per fan-out, so the list is cached and
        invalidated on registration rather than rebuilt per call.
        """
        ids = self._node_ids_cache
        if ids is None:
            ids = self._node_ids_cache = list(self._nodes.keys())
        return ids

    def _nominal(self, src: int, dst: int) -> float:
        """Nominal (cached) one-way delay from ``src`` to ``dst``."""
        pair = (src, dst)
        nominal = self._nominal_delay.get(pair)
        if nominal is None:
            nominal = self.topology.one_way(src, dst)
            self._nominal_delay[pair] = nominal
        return nominal

    def send(self, src: int, dst: int, message: object) -> None:
        """Send ``message`` from node ``src`` to node ``dst``.

        The one-way delay is the pair's nominal delay plus gaussian jitter
        (none on a self-send), never below :data:`MIN_DELAY_MS`.  Delivery is
        asynchronous; a crashed receiver makes the message silently
        disappear.
        """
        self.stats.messages_sent += 1
        nominal = self._nominal_delay.get((src, dst))
        if nominal is None:
            nominal = self._nominal(src, dst)
        jitter = self.config.jitter_ms
        if jitter > 0 and src != dst:
            nominal += self._gauss(0.0, jitter)
        delay = MIN_DELAY_MS if nominal < MIN_DELAY_MS else nominal
        # The send time rides along so delivery can tell whether the
        # destination crashed while the message was in flight.  This path
        # runs once per message, so it reads sim._now and pushes a transient
        # (never cancelled) entry onto the heap itself: a delivery is rarely
        # the next event, which is what the queue's slot is for.
        now = self.sim._now
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (now + delay, seq, self._deliver, (src, dst, message, now), None))

    def _deliver(self, src: int, dst: int, message: object, sent_at: float) -> None:
        """Hand a message that survived the network to its destination node.

        A message is dead on arrival when the destination is down or when it
        crashed at any point after the send (a restart does not resurrect
        in-flight traffic: the connection died with the process).
        """
        node = self._nodes.get(dst)
        if node is None or node.crashed:
            self.stats.messages_to_crashed += 1
            return
        # Strictly-after comparison: a crash at the same virtual instant as
        # the send is logically concurrent with it (crash-then-restart-then-
        # send sequences within one instant must still deliver).
        if node.last_crashed_at > sent_at:
            self.stats.messages_dead_in_flight += 1
            return
        self.stats.messages_delivered += 1
        node.receive(src, message)


class NodeLike:
    """Protocol (duck-typed) interface the network expects from nodes."""

    node_id: int
    crashed: bool
    #: virtual time of the node's most recent crash (-1.0 if it never crashed);
    #: deliveries compare it against the send time to drop in-flight messages
    #: that span a crash.
    last_crashed_at: float = -1.0

    def receive(self, src: int, message: object) -> None:
        """Accept an incoming message from ``src``."""
        raise NotImplementedError
