"""Failure injection and failure detection.

The paper assumes crash (non-byzantine) failures plus the weakest failure
detector sufficient for leader election.  In the simulation:

* :class:`CrashInjector` schedules crashes (and optional restarts) of chosen
  nodes at chosen virtual times — this drives the Figure 12 experiment.
* :class:`FailureDetector` is a simple heartbeat-based eventually-accurate
  detector: every node broadcasts heartbeats, and a peer that has not been
  heard from within ``suspect_after_ms`` is suspected.  Suspicion callbacks
  let protocols trigger recovery (CAESAR's per-command RECOVERY phase,
  EPaxos' explicit-prepare, Multi-Paxos leader re-election).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.runtime.codec import UINT
from repro.runtime.registry import register_message


@register_message(sender=UINT, sequence=UINT)
@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Periodic liveness message exchanged between nodes."""

    sender: int
    sequence: int


@dataclass
class ScheduledCrash:
    """A crash (and optional restart) planned for a node."""

    node_id: int
    crash_at_ms: float
    restart_at_ms: Optional[float] = None


class CrashInjector:
    """Schedules crash/restart events against a set of nodes.

    Args:
        sim: the clock crashes are scheduled on (needs ``schedule_at``).
        nodes: mapping ``node_id -> node`` for every node that can be crashed.
    """

    def __init__(self, sim, nodes: Dict[int, "NodeHandle"]) -> None:
        self.sim = sim
        self._nodes = nodes
        self.crashes_performed: List[int] = []
        self.restarts_performed: List[int] = []

    def schedule(self, plan: ScheduledCrash) -> None:
        """Arrange for the node in ``plan`` to crash (and maybe restart)."""
        node = self._nodes[plan.node_id]

        def do_crash() -> None:
            if not node.crashed:
                node.crash()
                self.crashes_performed.append(plan.node_id)

        self.sim.schedule_at(plan.crash_at_ms, do_crash)
        if plan.restart_at_ms is not None:

            def do_restart() -> None:
                if node.crashed:
                    node.restart()
                    self.restarts_performed.append(plan.node_id)

            self.sim.schedule_at(plan.restart_at_ms, do_restart)

    def crash_now(self, node_id: int) -> None:
        """Crash a node immediately."""
        node = self._nodes[node_id]
        if not node.crashed:
            node.crash()
            self.crashes_performed.append(node_id)


class NodeHandle:
    """Duck-typed view of a node the injector needs (crash/restart/crashed)."""

    crashed: bool

    def crash(self) -> None:  # pragma: no cover - interface documentation only
        raise NotImplementedError

    def restart(self) -> None:  # pragma: no cover - interface documentation only
        raise NotImplementedError


class FailureDetector:
    """Heartbeat-based eventually-accurate failure detector for one node.

    Each protocol node owns one detector instance.  The detector piggybacks
    on the owning node's timers and network; it emits heartbeats every
    ``heartbeat_every_ms`` and declares a peer suspected when no heartbeat has
    been received for ``suspect_after_ms``.

    Args:
        owner: the node this detector runs on (anything exposing ``node_id``,
            ``broadcast``, ``set_timer``, ``sim`` and ``crashed``).
        peer_ids: ids of all nodes in the cluster (including the owner).
        heartbeat_every_ms: heartbeat period.
        suspect_after_ms: silence threshold before suspecting a peer.
        on_suspect: callback invoked once per newly suspected peer.
    """

    def __init__(self, owner, peer_ids: List[int], heartbeat_every_ms: float = 100.0,
                 suspect_after_ms: float = 500.0,
                 on_suspect: Optional[Callable[[int], None]] = None) -> None:
        self.owner = owner
        self.peer_ids = [p for p in peer_ids if p != owner.node_id]
        self.heartbeat_every_ms = heartbeat_every_ms
        self.suspect_after_ms = suspect_after_ms
        self.on_suspect = on_suspect
        self.suspected: Set[int] = set()
        self._last_heard: Dict[int, float] = {}
        self._sequence = 0
        self._running = False

    def start(self) -> None:
        """Begin emitting heartbeats and checking peers."""
        self._running = True
        now = self.owner.sim.now
        for peer in self.peer_ids:
            self._last_heard[peer] = now
        self._emit_heartbeat()
        self._schedule_check()

    def stop(self) -> None:
        """Stop the detector (no further suspicion callbacks)."""
        self._running = False

    def observe_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Record a heartbeat received from a peer."""
        self._last_heard[heartbeat.sender] = self.owner.sim.now
        if heartbeat.sender in self.suspected:
            # The peer recovered (or the suspicion was premature): trust it again.
            self.suspected.discard(heartbeat.sender)

    def observe_any_message(self, sender: int) -> None:
        """Any protocol message also counts as evidence the sender is alive."""
        if sender in self._last_heard:
            self._last_heard[sender] = self.owner.sim.now

    def is_suspected(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently suspected of having crashed."""
        return node_id in self.suspected

    def _emit_heartbeat(self) -> None:
        if not self._running or self.owner.crashed:
            return
        self._sequence += 1
        self.owner.broadcast(Heartbeat(sender=self.owner.node_id, sequence=self._sequence),
                             include_self=False)
        self.owner.set_timer(self.heartbeat_every_ms, self._emit_heartbeat)

    def _schedule_check(self) -> None:
        if not self._running or self.owner.crashed:
            return
        self._check_peers()
        self.owner.set_timer(self.heartbeat_every_ms, self._schedule_check)

    def _check_peers(self) -> None:
        now = self.owner.sim.now
        for peer in self.peer_ids:
            if peer in self.suspected:
                continue
            silence = now - self._last_heard.get(peer, now)
            if silence >= self.suspect_after_ms:
                self.suspected.add(peer)
                if self.on_suspect is not None:
                    self.on_suspect(peer)
