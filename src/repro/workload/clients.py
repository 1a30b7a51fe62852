"""Clients driving the consensus replicas, and the one place they are built.

Two arrival models, matching the paper's methodology:

* :class:`ClosedLoopClient` — keeps exactly one command outstanding; used for
  the latency experiments ("we issued requests in a closed loop by placing 10
  clients co-located with each node").
* :class:`OpenLoopClient` — injects commands at a target rate regardless of
  completions; used for the throughput experiments.

Both record completed-command latencies into a shared
:class:`~repro.metrics.collector.MetricsCollector`, and both support
re-targeting to another replica when the original one crashes (the Figure 12
client-reconnection behaviour).

:func:`build_pool` is the only constructor call site: every figure cell,
chaos cell, oracle run and ``repro loadgen`` is that pool on a seed, on the
simulator (targets are replicas) and over TCP (targets are connections, see
:func:`repro.net.client.connect_pool`) alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.consensus.command import Command, CommandResult
from repro.consensus.interface import ConsensusReplica
from repro.metrics.collector import MetricsCollector
from repro.runtime.clock import Clock
from repro.sim.random import DeterministicRandom
from repro.workload.generator import ConflictWorkload, WorkloadConfig


class ClosedLoopClient:
    """A client that always has exactly one outstanding command.

    Args:
        client_id: unique id (also used in command ids).
        replica: replica the client submits to (its "local" site).
        workload: command generator for this client.
        sim: the substrate's clock.
        metrics: collector receiving per-command latency samples.
        reconnect_timeout_ms: if a command does not complete within this time
            (e.g. the replica crashed), the client re-submits a fresh command
            to another replica.
        fallback_replicas: replicas to reconnect to after a timeout.
        max_commands: stop after completing this many commands (``None`` =
            run until stopped).  Fixed budgets make runs comparable across
            substrates: the oracle tests replay the identical workload
            prefix in the simulator and over TCP.
        history: optional invocation/response tape
            (:class:`repro.chaos.history.HistoryTape`).  Every submission is
            taped as an invocation; a command abandoned after a reconnect
            timeout stays *pending* on the tape — the protocol may still
            execute it, and the linearizability checker accounts for that.
        rejection_backoff_ms: pause before resubmitting after an admission
            rejection.  Rejections are delivered in the same virtual instant
            as the submit, so retrying immediately would spin (and recurse)
            without ever letting the replica's queue drain.
    """

    rejection_backoff_ms = 1.0

    def __init__(self, client_id: int, replica: ConsensusReplica, workload: ConflictWorkload,
                 sim: Clock, metrics: MetricsCollector,
                 reconnect_timeout_ms: Optional[float] = None,
                 fallback_replicas: Optional[List[ConsensusReplica]] = None,
                 history=None, max_commands: Optional[int] = None) -> None:
        self.client_id = client_id
        self.replica = replica
        self.workload = workload
        self.sim = sim
        self.metrics = metrics
        self.reconnect_timeout_ms = reconnect_timeout_ms
        self.fallback_replicas = fallback_replicas or []
        self.history = history
        self.max_commands = max_commands
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0
        self._running = False
        self._outstanding_seq: Optional[int] = None

    def start(self) -> None:
        """Begin the submit/complete loop."""
        self._running = True
        self._submit_next()

    def stop(self) -> None:
        """Stop after the current command completes."""
        self._running = False

    def _submit_next(self) -> None:
        if not self._running:
            return
        command = self.workload.next_command()
        if command.origin != self.replica.node_id:
            # The client reconnected to a different replica after a crash.
            command = dataclasses.replace(command, origin=self.replica.node_id)
        submitted_at = self.sim.now
        self._outstanding_seq = command.command_id[1]
        taped = (self.history.invoke(self.client_id, command.key, command.operation,
                                     command.value)
                 if self.history is not None else None)

        def on_result(result: CommandResult, cmd: Command = command,
                      started: float = submitted_at) -> None:
            if taped is not None:
                # The response is taped even after a reconnect replaced the
                # command: the client *observed* this output.
                self.history.respond(taped, result.value)
            if self._outstanding_seq != cmd.command_id[1]:
                return  # A reconnection already replaced this command.
            self._outstanding_seq = None
            if result.rejected:
                # Admission control shed the command; it still consumes the
                # loop slot (the client moves on) but is no latency sample.
                self.rejected += 1
            else:
                self.completed += 1
                self.metrics.record_command(origin=cmd.origin, proposer=self.replica.node_id,
                                            latency_ms=self.sim.now - started,
                                            completed_at=self.sim.now, key=cmd.key)
            if (self.max_commands is not None
                    and self.completed + self.rejected >= self.max_commands):
                self._running = False
                return
            if result.rejected:
                self.sim.schedule(self.rejection_backoff_ms, self._submit_next)
            else:
                self._submit_next()

        self.replica.submit(command, callback=on_result)
        if self.reconnect_timeout_ms is not None:
            sequence = command.command_id[1]
            self.sim.schedule(self.reconnect_timeout_ms,
                              lambda: self._maybe_reconnect(sequence))

    def _maybe_reconnect(self, sequence: int) -> None:
        """Re-target to a live replica when the outstanding command timed out."""
        if not self._running or self._outstanding_seq != sequence:
            return
        self.timeouts += 1
        self._outstanding_seq = None
        live = [replica for replica in self.fallback_replicas if not replica.crashed]
        if self.replica.crashed and live:
            self.replica = live[0]
        self._submit_next()


class OpenLoopClient:
    """A client injecting commands at a fixed average rate (Poisson arrivals).

    Args:
        client_id: unique id.
        replica: replica the client submits to.
        workload: command generator.
        sim: the substrate's clock.
        metrics: collector receiving latency samples.
        rate_per_second: average injection rate.
        rng: random stream for exponential inter-arrival times.
        stop_after_ms: stop injecting after this much virtual time (optional).
        fallback_replicas: replicas to fail over to when the current target
            crashes; like :class:`ClosedLoopClient`, the client rewrites
            ``command.origin`` after a retarget so per-origin latency stays
            attributed to the replica that actually served the command.
        history: optional invocation/response tape (see
            :class:`ClosedLoopClient`).
    """

    def __init__(self, client_id: int, replica: ConsensusReplica, workload: ConflictWorkload,
                 sim: Clock, metrics: MetricsCollector, rate_per_second: float,
                 rng: DeterministicRandom, stop_after_ms: Optional[float] = None,
                 fallback_replicas: Optional[List[ConsensusReplica]] = None,
                 history=None) -> None:
        self.client_id = client_id
        self.replica = replica
        self.workload = workload
        self.sim = sim
        self.metrics = metrics
        self.rate_per_second = rate_per_second
        self.rng = rng
        self.stop_after_ms = stop_after_ms
        self.fallback_replicas = fallback_replicas or []
        self.history = history
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.retargets = 0
        self._running = False
        self._started_at = 0.0

    def start(self) -> None:
        """Begin injecting commands."""
        self._running = True
        self._started_at = self.sim.now
        self._schedule_next()

    def stop(self) -> None:
        """Stop injecting (outstanding commands still complete)."""
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        rate_per_ms = self.rate_per_second / 1000.0
        delay = self.rng.expovariate(rate_per_ms) if rate_per_ms > 0 else float("inf")
        self.sim.schedule(delay, self._inject)

    def _inject(self) -> None:
        if not self._running:
            return
        if (self.stop_after_ms is not None
                and self.sim.now - self._started_at >= self.stop_after_ms):
            self._running = False
            return
        if self.replica.crashed:
            # Fail over instead of injecting into a dead replica forever
            # (the open-loop twin of ClosedLoopClient._maybe_reconnect).
            live = [replica for replica in self.fallback_replicas if not replica.crashed]
            if live:
                self.replica = live[0]
                self.retargets += 1
        command = self.workload.next_command()
        if command.origin != self.replica.node_id:
            # Rewrite the origin after a retarget so per-origin latency is
            # attributed to the replica that actually proposed the command.
            command = dataclasses.replace(command, origin=self.replica.node_id)
        submitted_at = self.sim.now
        self.submitted += 1
        proposer = self.replica.node_id
        taped = (self.history.invoke(self.client_id, command.key, command.operation,
                                     command.value)
                 if self.history is not None else None)

        def on_result(result: CommandResult, cmd: Command = command,
                      started: float = submitted_at) -> None:
            if taped is not None:
                self.history.respond(taped, result.value)
            if result.rejected:
                self.rejected += 1
                return
            self.completed += 1
            self.metrics.record_command(origin=cmd.origin, proposer=proposer,
                                        latency_ms=self.sim.now - started,
                                        completed_at=self.sim.now, key=cmd.key)

        self.replica.submit(command, callback=on_result)
        self._schedule_next()


@dataclass
class ClientPool:
    """A named collection of clients started and stopped together."""

    clients: List[object] = field(default_factory=list)

    def add(self, client) -> None:
        """Add a client to the pool."""
        self.clients.append(client)

    def start_all(self) -> None:
        """Start every client in the pool."""
        for client in self.clients:
            client.start()

    def stop_all(self) -> None:
        """Stop every client in the pool."""
        for client in self.clients:
            client.stop()

    @property
    def total_completed(self) -> int:
        """Total commands completed across the pool."""
        return sum(client.completed for client in self.clients)

    @property
    def total_rejected(self) -> int:
        """Total commands shed by admission control across the pool."""
        return sum(client.rejected for client in self.clients)


def build_pool(targets: Sequence[ConsensusReplica], workload: WorkloadConfig, clock: Clock,
               metrics: MetricsCollector, *, label: str = "client",
               open_loop_rate: Optional[float] = None, stop_after_ms: Optional[float] = None,
               failover: Sequence[ConsensusReplica] = (),
               reconnect_timeout_ms: Optional[float] = None, history=None,
               max_commands: Optional[int] = None) -> ClientPool:
    """Build the seeded pool: client ``i`` submits to ``targets[i]``.

    The caller states the placement (per site, round-robin) in ``targets`` —
    replicas, or connections with their ``node_id`` / ``crashed`` / ``submit``
    surface.  Client ``i`` draws its commands from
    ``clock.rng.fork(f"{label}-{i}")`` and its open-loop arrivals from that
    stream's ``fork("arrivals")``; a simulator and a wall clock built from one
    seed carry the same ``rng``, so one seed is one workload on either
    substrate.  ``open_loop_rate`` (commands per second per client) selects
    open loop, injecting for ``stop_after_ms``; otherwise the loop is closed,
    with a ``max_commands`` budget and a ``reconnect_timeout_ms`` give-up time
    per command.  Every client gets the ``history`` tape and the ``failover``
    candidates, of which it only ever picks a live one once its own target
    has crashed.
    """
    pool = ClientPool()
    fallbacks = list(failover)
    for client_id, target in enumerate(targets):
        rng = clock.rng.fork(f"{label}-{client_id}")
        stream = ConflictWorkload(client_id, target.node_id, workload, rng)
        if open_loop_rate is not None:
            pool.add(OpenLoopClient(client_id, target, stream, clock, metrics,
                                    rate_per_second=open_loop_rate, rng=rng.fork("arrivals"),
                                    stop_after_ms=stop_after_ms, fallback_replicas=fallbacks,
                                    history=history))
        else:
            pool.add(ClosedLoopClient(client_id, target, stream, clock, metrics,
                                      reconnect_timeout_ms=reconnect_timeout_ms,
                                      fallback_replicas=fallbacks, history=history,
                                      max_commands=max_commands))
    return pool
