"""Replica interface shared by CAESAR and all baseline protocols.

Every protocol in this repository is implemented as a subclass of
:class:`ConsensusReplica`.  The class wires three things together:

* the :class:`~repro.sim.node.Node` process model (transport, timers, CPU model);
* the replicated state machine the decided commands are applied to;
* book-keeping the experiment harness relies on: per-command
  :class:`Decision` records (fast vs. slow path, phase timings) and the
  per-replica :class:`ExecutionLog` used by the correctness checks.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.consensus.command import Command, CommandId, CommandResult
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.costs import CostModel
from repro.sim.node import Node


class DecisionKind(enum.Enum):
    """How a command reached its final order."""

    FAST = "fast"
    SLOW = "slow"
    RECOVERED = "recovered"


@dataclass(slots=True)
class Decision:
    """Per-command record kept by the replica that proposed the command.

    Attributes:
        command_id: the command being tracked.
        proposer: replica the client submitted the command to.
        submitted_at: virtual time of the client submission.
        decided_at: virtual time at which the proposer learned the final order.
        executed_at: virtual time at which the proposer executed the command
            and answered the client.
        kind: fast path, slow path, or completed by recovery.
        phase_times: per-phase durations in ms (keys such as ``"propose"``,
            ``"retry"``, ``"deliver"``, ``"wait"``), used by Figure 11.
    """

    command_id: CommandId
    proposer: int
    submitted_at: float
    decided_at: Optional[float] = None
    executed_at: Optional[float] = None
    kind: Optional[DecisionKind] = None
    phase_times: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_ms(self) -> Optional[float]:
        """Client-visible latency (submission to execution at the proposer)."""
        if self.executed_at is None:
            return None
        return self.executed_at - self.submitted_at

    @property
    def is_complete(self) -> bool:
        """Whether the command has been executed at its proposer."""
        return self.executed_at is not None


class ExecutionLog:
    """Ordered record of the commands a replica has executed.

    The correctness checks compare logs of different replicas: conflicting
    commands must appear in the same relative order everywhere (Generalized
    Consensus consistency), while commuting commands may be permuted.
    """

    def __init__(self) -> None:
        self._entries: List[Command] = []
        self._positions: Dict[CommandId, int] = {}

    def append(self, command: Command) -> None:
        """Record that ``command`` was executed (exactly once per command)."""
        if command.command_id in self._positions:
            raise ValueError(f"command {command.command_id} executed twice")
        self._positions[command.command_id] = len(self._entries)
        self._entries.append(command)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def position(self, command_id: CommandId) -> Optional[int]:
        """Index of a command in this log, or ``None`` if not executed here."""
        return self._positions.get(command_id)

    def contains(self, command_id: CommandId) -> bool:
        """Whether the command has been executed by this replica."""
        return command_id in self._positions

    @property
    def commands(self) -> List[Command]:
        """The executed commands, oldest first (copy)."""
        return list(self._entries)

    def conflicting_order_violations(self, other: "ExecutionLog") -> List[tuple]:
        """Pairs of conflicting commands ordered differently in ``self`` and ``other``.

        Conflicts only exist between commands on the same key, so the check
        compares each key's command sequence in both logs: an equal one, the
        overwhelmingly common case, costs one list comparison.  Only the other
        keys group their common commands with their positions in the other
        log, and only a non-monotone group takes the exact pairwise comparison
        (which also accounts for commuting reads).
        """
        mine, theirs = defaultdict(list), defaultdict(list)
        for log, per_key in ((self, mine), (other, theirs)):
            for c in log._entries:
                per_key[c.key].append(c)
        differing = {key for key, commands in mine.items() if theirs.get(key) != commands}
        violations: List[tuple] = []
        other_positions = other._positions
        by_key: Dict[str, List[tuple]] = {}
        for c in self._entries if differing else ():
            position = other_positions.get(c.command_id) if c.key in differing else None
            if position is not None:
                by_key.setdefault(c.key, []).append((c, position))
        for group in by_key.values():
            if len(group) < 2:
                continue
            positions = [position for _, position in group]
            if all(positions[i] < positions[i + 1] for i in range(len(positions) - 1)):
                continue
            for i, (first, first_pos) in enumerate(group):
                for second, second_pos in group[i + 1:]:
                    if first_pos > second_pos and first.conflicts_with(second):
                        violations.append((first.command_id, second.command_id))
        return violations


def order_violations(replicas: Sequence["ConsensusReplica"]) -> List[tuple]:
    """Conflicting pairs that two live replicas executed in opposite orders.

    One ``(node a, node b, command id, command id)`` per pair; empty when the
    run satisfies Generalized Consensus consistency.
    """
    live = [replica for replica in replicas if not replica.crashed]
    return [(first.node_id, second.node_id, *pair)
            for i, first in enumerate(live) for second in live[i + 1:]
            for pair in first.execution_log.conflicting_order_violations(
                second.execution_log)]


class ConsensusReplica(Node):
    """Base class for every protocol replica.

    Args:
        node_id: index of this replica.
        sim: the substrate's clock (``Simulator`` or ``WallClock``).
        network: its transport factory (``Network`` or ``PeerNetwork``).
        quorums: pre-computed quorum sizes for the cluster.
        state_machine: the local copy of the replicated state machine.
        cost_model: CPU model (``None`` for the default).
    """

    #: human-readable protocol name, overridden by subclasses.
    protocol_name = "abstract"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(node_id, sim, network, cost_model)
        self.quorums = quorums
        self.state_machine = state_machine
        self.execution_log = ExecutionLog()
        self.decisions: Dict[CommandId, Decision] = {}
        self._client_callbacks: Dict[CommandId, Callable[[CommandResult], None]] = {}
        self.commands_executed = 0
        #: optional admission/backpressure policy guarding :meth:`submit`
        #: (see :mod:`repro.runtime.admission`); ``None`` keeps the submit
        #: path hook-free.
        self.admission = None
        #: optional zero-argument hook fired after every local execution; the
        #: cluster harness uses it to maintain an O(1) completion counter.
        self.execution_listener: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------ client API

    def submit(self, command: Command,
               callback: Optional[Callable[[CommandResult], None]] = None) -> None:
        """Entry point for a client co-located with this replica.

        The replica becomes the command's leader, tracks a :class:`Decision`
        record for it, and will invoke ``callback`` once the command has been
        executed locally.  When an admission policy is installed and sheds
        the command, ``callback`` fires immediately with a rejected result
        and the protocol never sees the command.
        """
        if self.crashed:
            return
        if self.admission is not None:
            reason = self.admission.try_admit(command.command_id, self.sim.now)
            if reason is not None:
                if callback is not None:
                    callback(CommandResult(command_id=command.command_id, value=None,
                                           executed_at=self.sim.now, rejected=True))
                return
        if callback is not None:
            self._client_callbacks[command.command_id] = callback
        self.decisions[command.command_id] = Decision(
            command_id=command.command_id, proposer=self.node_id, submitted_at=self.sim.now)
        self.consume_cpu(self.cost_model.client_request_ms)
        self.propose(command)

    def propose(self, command: Command) -> None:
        """Start the protocol-specific ordering of ``command`` (subclass hook)."""
        raise NotImplementedError

    # -------------------------------------------------------------- execution

    def execute_command(self, command: Command) -> Optional[Decision]:
        """Apply a decided command to the local state machine, exactly once.

        Returns the command's :class:`Decision` when it was proposed here
        (``None`` elsewhere), so a caller timing the delivery need not look
        it up again.
        """
        command_id = command.command_id
        value = self.state_machine.apply(command)
        self.execution_log.append(command)
        self.commands_executed += 1
        if self.execution_listener is not None:
            self.execution_listener()
        now = self.sim.now
        if self.admission is not None:
            self.admission.release(command_id, now)
        decision = self.decisions.get(command_id)
        if decision is not None and decision.executed_at is None:
            decision.executed_at = now
        callback = self._client_callbacks.pop(command_id, None)
        if callback is not None:
            callback(CommandResult(command_id=command_id, value=value, executed_at=now))
        return decision

    def has_executed(self, command_id: CommandId) -> bool:
        """Whether this replica has already executed the command."""
        return self.execution_log.contains(command_id)

    # ------------------------------------------------------------- reporting

    def record_decided(self, command_id: CommandId, kind: DecisionKind) -> None:
        """Record that the proposer learned the final order of a command."""
        decision = self.decisions.get(command_id)
        if decision is not None and decision.decided_at is None:
            decision.decided_at = self.sim.now
            decision.kind = kind

    def record_phase_time(self, command_id: CommandId, phase: str, duration_ms: float) -> None:
        """Accumulate per-phase latency for Figure 11-style breakdowns."""
        decision = self.decisions.get(command_id)
        if decision is not None:
            decision.phase_times[phase] = decision.phase_times.get(phase, 0.0) + duration_ms

    def completed_decisions(self) -> List[Decision]:
        """All decisions for commands proposed here that have been executed."""
        return [d for d in self.decisions.values() if d.is_complete]
