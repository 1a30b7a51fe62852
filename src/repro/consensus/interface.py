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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.consensus.command import (ALREADY_EXECUTED, IN_FLIGHT, SHED, Command, CommandId,
                                     CommandResult)
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

    The command's id is the record's key in ``ConsensusReplica.decisions``,
    and its proposer is the replica that holds it; neither is repeated here.

    Attributes:
        submitted_at: virtual time of the client submission.
        decided_at: virtual time at which the proposer learned the final order.
        executed_at: virtual time at which the proposer executed the command
            and answered the client.
        kind: fast path, slow path, or completed by recovery.
        propose_ms / retry_ms / deliver_ms: ms CAESAR's proposer spent proposing,
            retrying, and from learning the order to executing, which Figure 11
            sums; the other protocols leave them at 0.
    """

    submitted_at: float
    decided_at: Optional[float] = None
    executed_at: Optional[float] = None
    kind: Optional[DecisionKind] = None
    propose_ms: float = 0.0
    retry_ms: float = 0.0
    deliver_ms: float = 0.0

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

    The log is the order and nothing else: whether a command was executed is
    its replica's fact (:meth:`ConsensusReplica.has_executed`), and the
    positions a cold check needs are built by :meth:`positions` when it asks.
    """

    def __init__(self) -> None:
        self._entries: List[Command] = []

    def append(self, command: Command) -> None:
        """Record that ``command`` was executed (its replica executes each once)."""
        self._entries.append(command)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self, start: int, stop: int) -> List[CommandId]:
        """Ids of the commands executed at positions ``start`` .. ``stop - 1``."""
        return [command.command_id for command in self._entries[start:stop]]

    def positions(self) -> Dict[CommandId, int]:
        """Index in this log of every command executed here, built on each call."""
        return {command.command_id: i for i, command in enumerate(self._entries)}

    def per_key(self) -> Dict[str, List[Command]]:
        """This log's commands grouped by key, each group in execution order."""
        per_key: Dict[str, List[Command]] = defaultdict(list)
        for c in self._entries:
            per_key[c.key].append(c)
        return per_key

    def conflicting_order_violations(self, other: "ExecutionLog") -> List[tuple]:
        """Pairs of conflicting commands ordered differently in ``self`` and ``other``."""
        return _order_violations(self, self.per_key(), other.per_key(), other.positions)


def _order_violations(log: ExecutionLog, mine: Dict[str, List[Command]],
                      theirs: Dict[str, List[Command]],
                      other_positions: Callable[[], Dict[CommandId, int]]) -> List[tuple]:
    """The conflicting pairs ``log`` orders unlike the other log.

    Conflicts only exist between commands on the same key, so the check
    compares each key's command sequence in both logs (``mine`` / ``theirs``,
    from :meth:`ExecutionLog.per_key`): an equal one, the overwhelmingly
    common case, costs one list comparison.  Only when a key differs are the
    other log's positions asked for; the differing keys group their common
    commands with those positions, and only a non-monotone group takes the
    exact pairwise comparison (which also accounts for commuting reads).
    """
    differing = {key for key, commands in mine.items() if theirs.get(key) != commands}
    if not differing:
        return []
    positions = other_positions()
    by_key: Dict[str, List[tuple]] = {}
    for c in log._entries:
        position = positions.get(c.command_id) if c.key in differing else None
        if position is not None:
            by_key.setdefault(c.key, []).append((c, position))
    violations: List[tuple] = []
    for group in by_key.values():
        if len(group) < 2:
            continue
        ordered = [position for _, position in group]
        if all(ordered[i] < ordered[i + 1] for i in range(len(ordered) - 1)):
            continue
        for i, (first, first_pos) in enumerate(group):
            for second, second_pos in group[i + 1:]:
                if first_pos > second_pos and first.conflicts_with(second):
                    violations.append((first.command_id, second.command_id))
    return violations


def order_violations(replicas: Sequence["ConsensusReplica"]) -> List[tuple]:
    """Conflicting pairs that two live replicas executed in opposite orders.

    One ``(node a, node b, command id, command id)`` per pair; empty when the
    run satisfies Generalized Consensus consistency.  Each live log is grouped
    by key once, and its positions are built once, by the first pair that
    differs from it, for the whole check.
    """
    live = [replica for replica in replicas if not replica.crashed]
    logs = [replica.execution_log for replica in live]
    per_key = [log.per_key() for log in logs]
    positions: Dict[int, Dict[CommandId, int]] = {}

    def positions_of(j: int) -> Dict[CommandId, int]:
        if j not in positions:
            positions[j] = logs[j].positions()
        return positions[j]

    return [(live[i].node_id, live[j].node_id, *pair)
            for i in range(len(live)) for j in range(i + 1, len(live))
            for pair in _order_violations(logs[i], per_key[i], per_key[j],
                                          partial(positions_of, j))]


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
                 state_machine: StateMachine, cost_model: Optional[CostModel]) -> None:
        super().__init__(node_id, sim, network, cost_model)
        self.quorums = quorums
        self.state_machine = state_machine
        self.execution_log = ExecutionLog()
        #: Every id executed here, for :meth:`has_executed` and the
        #: executed-twice guard; ``None`` for a protocol that keeps that fact
        #: itself (CAESAR: its delivered bits) and overrides both.
        self._executed_ids: Optional[Dict[CommandId, None]] = {}
        self.decisions: Dict[CommandId, Decision] = {}
        self._client_callbacks: Dict[CommandId, Callable[[CommandResult], None]] = {}
        self.commands_executed = 0
        #: optional admission/backpressure policy guarding :meth:`submit`
        #: (see :mod:`repro.runtime.admission`); ``None`` keeps the submit
        #: path hook-free.
        self.admission = None

    # ------------------------------------------------------------ client API

    def submit(self, command: Command, callback: Callable[[CommandResult], None]) -> None:
        """Entry point for a client co-located with this replica.

        The replica becomes the command's leader, tracks a :class:`Decision`
        record for it, and will invoke ``callback`` once the command has been
        executed locally.  When the command id was already executed here or is
        still in flight here (a client that reuses ids), or an admission
        policy is installed and sheds the command, ``callback`` fires
        immediately with a rejected result and the protocol never sees the
        command: an executed command never executes again, so proposing it
        would leave the client waiting for an answer that never comes, and an
        id holds one callback, so a second one would silence the first.
        """
        if self.crashed:
            return
        if self.has_executed(command.command_id):
            callback(CommandResult(command.command_id, None, self.sim.now, ALREADY_EXECUTED))
            return
        if command.command_id in self._client_callbacks:
            callback(CommandResult(command.command_id, None, self.sim.now, IN_FLIGHT))
            return
        if self.admission is not None:
            reason = self.admission.try_admit(command.command_id, self.sim.now)
            if reason is not None:
                callback(CommandResult(command.command_id, None, self.sim.now, SHED))
                return
        self._client_callbacks[command.command_id] = callback
        self.decisions[command.command_id] = Decision(self.sim.now)
        self.consume_cpu(self.cost_model.client_request_ms)
        self.propose(command)

    def propose(self, command: Command) -> None:
        """Start the protocol-specific ordering of ``command`` (subclass hook)."""
        raise NotImplementedError

    # -------------------------------------------------------------- execution

    def execute_command(self, command: Command) -> Optional[Decision]:
        """Apply a decided command to the local state machine, exactly once:
        the executed-id index refuses a second execution (CAESAR's delivery
        refuses it before calling here).

        Returns the command's :class:`Decision` when it was proposed here
        (``None`` elsewhere), so a caller timing the delivery need not look
        it up again.
        """
        command_id = command.command_id
        executed = self._executed_ids
        if executed is not None:
            if command_id in executed:
                raise ValueError(f"command {command_id} executed twice")
            executed[command_id] = None
        value = self.state_machine.apply(command)
        self.execution_log.append(command)
        self.commands_executed += 1
        now = self.sim.now
        if self.admission is not None:
            self.admission.release(command_id, now)
        decision = self.decisions.get(command_id)
        if decision is not None and decision.executed_at is None:
            decision.executed_at = now
        callback = self._client_callbacks.pop(command_id, None)
        if callback is not None:
            callback(CommandResult(command_id, value, now))
        return decision

    def has_executed(self, command_id: CommandId) -> bool:
        """Whether this replica has already executed the command."""
        return command_id in self._executed_ids

    # ------------------------------------------------------------- reporting

    def record_decided(self, command_id: CommandId, kind: DecisionKind) -> None:
        """Record that the proposer learned the final order of a command."""
        decision = self.decisions.get(command_id)
        if decision is not None and decision.decided_at is None:
            decision.decided_at = self.sim.now
            decision.kind = kind

    def completed_decisions(self) -> List[Decision]:
        """All decisions for commands proposed here that have been executed."""
        return [d for d in self.decisions.values() if d.is_complete]
