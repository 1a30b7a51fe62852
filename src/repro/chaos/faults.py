"""The link-fault data plane.

One :class:`LinkFaults` instance is shared by every replica's transport in a
chaos run (installed through
:meth:`~repro.runtime.transport.SimulatorTransport.install_fault_filter`).
The transport offers it every outgoing wire message — unicast or broadcast,
there is one way out of a replica — and the filter either lets the message
through untouched or applies the faults configured for that directed link:

* **blocking** — the link is cut: messages are held and released in order
  when the link heals, modelling a TCP connection that stalls and then
  catches up;
* **loss** — each message is independently dropped with a probability (a
  dead route is loss at probability 1);
* **duplication** — each message is independently delivered twice;
* **delay spikes** — each message is delayed by an extra base + uniform
  jitter before entering the network (large jitter also reorders).

This is the only fault plane: the simulated network itself knows uniform loss
and crashed receivers, nothing about partitions.

All sampling draws from a dedicated deterministic stream, so enabling a
fault schedule never perturbs the draws of the network, the workload or any
other component, and a run replays exactly from its seed.

Faults apply per *directed* link, which is what makes asymmetric partitions
expressible; self-addressed messages are never intercepted (a node can
always talk to itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.sim.network import Network
from repro.sim.random import DeterministicRandom
from repro.sim.simulator import Simulator

#: A directed link, ``(src, dst)``.
Link = Tuple[int, int]


@dataclass
class FaultStats:
    """Counters describing everything the fault plane did during a run."""

    messages_held: int = 0
    messages_released: int = 0
    messages_dropped_by_loss: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    per_link_held: Dict[Link, int] = field(default_factory=dict)


class LinkFaults:
    """Mutable per-link fault state, consulted once per outgoing message.

    Args:
        sim: the shared simulator (supplies the clock for delayed releases).
        network: the shared network messages are forwarded into.
        rng: deterministic stream for loss/duplication/jitter sampling;
            fork it from the simulator's root stream under a dedicated label.
    """

    def __init__(self, sim: Simulator, network: Network, rng: DeterministicRandom) -> None:
        self.sim = sim
        self.network = network
        self.stats = FaultStats()
        self._rng = rng
        #: the cut directed links.
        self._blocked: Set[Link] = set()
        #: messages held on blocked links, in send order.
        self._held: Dict[Link, List[object]] = {}
        self._loss: Dict[Link, float] = {}
        self._dup: Dict[Link, float] = {}
        #: directed link -> (extra base delay ms, uniform jitter ms).
        self._delay: Dict[Link, Tuple[float, float]] = {}

    # ------------------------------------------------------------- transport

    def intercept(self, src: int, dst: int, message: object) -> bool:
        """Apply link faults to one outgoing message.

        Returns ``True`` when the message was consumed (blocked, dropped or
        rescheduled by the fault plane); ``False`` lets the transport send it
        normally.
        """
        if src == dst:
            return False
        link = (src, dst)
        if link in self._blocked:
            self._hold(link, message)
            return True
        loss = self._loss.get(link)
        if loss is not None and self._rng.random() < loss:
            self.stats.messages_dropped_by_loss += 1
            return True
        dup = self._dup.get(link)
        duplicated = dup is not None and self._rng.random() < dup
        if duplicated:
            self.stats.messages_duplicated += 1
        spike = self._delay.get(link)
        if spike is not None:
            # Each copy samples its own spike, so duplicates reorder too.
            self._delay_send(link, spike, message)
            if duplicated:
                self._delay_send(link, spike, message)
            return True
        if duplicated:
            self.network.send(src, dst, message)
        return False

    def _delay_send(self, link: Link, spike: Tuple[float, float], message: object) -> None:
        """Schedule one copy of a message past its sampled extra delay."""
        base, jitter = spike
        extra = base + (self._rng.uniform(0.0, jitter) if jitter > 0 else 0.0)
        self.stats.messages_delayed += 1
        self.sim.schedule(extra, self._forward, args=(link[0], link[1], message))

    def _hold(self, link: Link, message: object) -> None:
        """Park one message on a blocked link."""
        self._held.setdefault(link, []).append(message)
        self.stats.messages_held += 1
        per_link = self.stats.per_link_held
        per_link[link] = per_link.get(link, 0) + 1

    def _forward(self, src: int, dst: int, message: object) -> None:
        """Enter the network after a delay spike, honouring blocks installed since."""
        if (src, dst) in self._blocked:
            self._hold((src, dst), message)
            return
        self.network.send(src, dst, message)

    # ---------------------------------------------------------- fault control

    def block(self, links: Iterable[Link]) -> None:
        """Cut the given directed links, holding their traffic until they heal."""
        self._blocked.update(links)

    def unblock(self, links: Iterable[Link]) -> None:
        """Heal the given links, releasing any held messages in send order."""
        for link in links:
            self._blocked.discard(link)
            held = self._held.pop(link, None)
            if held:
                src, dst = link
                for message in held:
                    self.stats.messages_released += 1
                    self.network.send(src, dst, message)

    def unblock_all(self) -> None:
        """Heal every blocked link."""
        self.unblock(list(self._blocked))

    def set_loss(self, links: Iterable[Link], probability: float) -> None:
        """Drop each message on the given links independently with ``probability``."""
        for link in links:
            self._loss[link] = probability

    def clear_loss(self, links: Iterable[Link]) -> None:
        """Stop dropping messages on the given links."""
        for link in links:
            self._loss.pop(link, None)

    def set_duplication(self, links: Iterable[Link], probability: float) -> None:
        """Deliver each message on the given links twice with ``probability``."""
        for link in links:
            self._dup[link] = probability

    def clear_duplication(self, links: Iterable[Link]) -> None:
        """Stop duplicating messages on the given links."""
        for link in links:
            self._dup.pop(link, None)

    def set_delay_spike(self, links: Iterable[Link], extra_ms: float,
                        jitter_ms: float) -> None:
        """Add ``extra_ms`` (+ uniform jitter) to each message on the given links."""
        for link in links:
            self._delay[link] = (extra_ms, jitter_ms)

    def clear_delay_spike(self, links: Iterable[Link]) -> None:
        """Remove the extra delay from the given links."""
        for link in links:
            self._delay.pop(link, None)


def cross_links(src_nodes: Iterable[int], dst_nodes: Iterable[int]) -> List[Link]:
    """All directed links from ``src_nodes`` to ``dst_nodes`` (self-links excluded)."""
    return [(src, dst) for src in src_nodes for dst in dst_nodes if src != dst]


def symmetric_links(group_a: Iterable[int], group_b: Iterable[int]) -> List[Link]:
    """All directed links between two groups, in both directions."""
    a, b = list(group_a), list(group_b)
    return cross_links(a, b) + cross_links(b, a)
