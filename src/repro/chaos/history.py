"""Client-visible history taping.

A :class:`HistoryTape` records one :class:`Operation` per client command:
the *invocation* (operation, key, argument, virtual time) when the client
submits, and the *response* (observed output, virtual time) when the client's
callback fires.  Commands that never complete — the replica crashed, the
link was partitioned, the client timed out and moved on — stay **pending**:
the linearizability checker must allow a pending operation to have taken
effect at any point after its invocation, or never at all, because the
underlying protocol may still execute it.

The tape is the client-observable counterpart of the replica-internal
execution logs: :mod:`repro.core.invariants` checks what the replicas did,
:mod:`repro.chaos.checker` checks what the clients could *see*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runtime.clock import Clock


@dataclass
class Operation:
    """One client operation: an invocation and (maybe) a response.

    Attributes:
        op_id: tape-wide unique id (also the tape insertion order).
        client_id: the invoking client.
        key: key the operation accesses.
        operation: ``"put"``, ``"get"`` or ``"delete"``.
        value: argument written by a ``put`` (``None`` otherwise).
        invoked_at: virtual time of the invocation.
        output: observed return value (the store returns the *previous* value
            for ``put``/``delete`` and the current value for ``get``).
        responded_at: virtual time of the response, ``None`` while pending.
    """

    op_id: int
    client_id: int
    key: str
    operation: str
    value: Optional[str]
    invoked_at: float
    output: Optional[str] = None
    responded_at: Optional[float] = None

    @property
    def is_pending(self) -> bool:
        """Whether the operation never received a response."""
        return self.responded_at is None

    def brief(self) -> str:
        """Compact one-line form for checker witnesses."""
        until = "?" if self.responded_at is None else f"{self.responded_at:.1f}"
        span = f"@{self.invoked_at:.1f}..{until}"
        if self.operation == "put":
            return f"c{self.client_id} put({self.value})->{self.output!r} {span}"
        return f"c{self.client_id} {self.operation}()->{self.output!r} {span}"


class HistoryTape:
    """Append-only record of every invocation/response a run's clients saw."""

    def __init__(self, sim: Clock) -> None:
        self.sim = sim
        self.operations: List[Operation] = []

    def invoke(self, client_id: int, key: str, operation: str,
               value: Optional[str] = None) -> Operation:
        """Record an invocation at the current virtual time and return its record."""
        op = Operation(op_id=len(self.operations), client_id=client_id, key=key,
                       operation=operation, value=value, invoked_at=self.sim.now)
        self.operations.append(op)
        return op

    def respond(self, op: Operation, output: Optional[str]) -> None:
        """Record the response for an earlier invocation (exactly once)."""
        if op.responded_at is not None:
            raise ValueError(f"operation {op.op_id} already responded")
        op.output = output
        op.responded_at = self.sim.now

    def __len__(self) -> int:
        return len(self.operations)

    @property
    def completed(self) -> List[Operation]:
        """Operations that received a response."""
        return [op for op in self.operations if not op.is_pending]

    @property
    def pending(self) -> List[Operation]:
        """Operations still waiting for a response (possibly forever)."""
        return [op for op in self.operations if op.is_pending]

    def per_key(self) -> Dict[str, List[Operation]]:
        """Operations grouped by key, preserving tape order within each key."""
        grouped: Dict[str, List[Operation]] = {}
        for op in self.operations:
            grouped.setdefault(op.key, []).append(op)
        return grouped


@dataclass
class TapedClientStats:
    """Small summary of a tape, for reports."""

    total: int = 0
    completed: int = 0
    pending: int = 0
    keys: int = 0

    @classmethod
    def of(cls, tape: HistoryTape) -> "TapedClientStats":
        """Summarize ``tape``."""
        completed = len(tape.completed)
        return cls(total=len(tape), completed=completed,
                   pending=len(tape) - completed, keys=len(tape.per_key()))
