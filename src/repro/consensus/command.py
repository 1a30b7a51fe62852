"""Commands and the non-commutativity (conflict) relation.

A command is an operation submitted by a client against the replicated
key-value store.  Following the paper's benchmark (Section VI), two commands
conflict when they access the same key; the key is drawn from a shared pool
to control the conflict percentage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Commands are globally identified by ``(client_id, sequence_number)``.
CommandId = Tuple[int, int]


class KeyBindingError(ValueError):
    """A message named a command id on a key other than the one it was first seen on."""

    def __init__(self, command_id: CommandId, bound_key: str, named_key: str) -> None:
        super().__init__(f"command {command_id} is bound to key {bound_key!r}, "
                         f"named on key {named_key!r}")


@dataclass(frozen=True, slots=True)
class Command:
    """A client operation to be ordered by consensus.

    Attributes:
        command_id: globally unique ``(client_id, sequence)`` pair.
        key: the key accessed by the operation; the conflict relation is
            "same key".
        operation: operation type, ``"put"`` or ``"get"``.
        value: payload written by a ``put`` (ignored for ``get``).
        origin: id of the replica the client submitted the command to, used
            for reporting the result back.
        payload_size: nominal serialized size in bytes (the paper uses
            15-byte commands); only affects the network byte counters.
    """

    command_id: CommandId
    key: str
    operation: str = "put"
    value: Optional[str] = None
    origin: int = 0
    payload_size: int = 15

    def conflicts_with(self, other: "Command") -> bool:
        """Whether this command and ``other`` are non-commutative.

        Two commands conflict when they touch the same key and at least one
        of them writes.  Reads of the same key commute with each other.
        """
        if self.key != other.key:
            return False
        if self.operation == "get" and other.operation == "get":
            return False
        return True

    @property
    def is_write(self) -> bool:
        """Whether the command mutates the store."""
        return self.operation != "get"

    def __str__(self) -> str:
        return f"Cmd({self.command_id[0]}.{self.command_id[1]} {self.operation} {self.key})"


def commands_conflict(a: Command, b: Command) -> bool:
    """Module-level convenience wrapper around :meth:`Command.conflicts_with`."""
    return a.conflicts_with(b)


@dataclass
class CommandResult:
    """Outcome of executing a command on the replicated state machine.

    Attributes:
        command_id: the command this result belongs to.
        value: value returned by the operation (previous/read value).
        executed_at: virtual time (ms) at which the origin replica executed it.
        rejected: the replica's admission policy shed this command instead of
            ordering it; ``value`` is ``None`` and nothing was executed.
    """

    command_id: CommandId
    value: Optional[str]
    executed_at: float = 0.0
    rejected: bool = False
