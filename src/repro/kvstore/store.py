"""In-memory key-value store used as the replicated state machine."""

from __future__ import annotations

from typing import Dict, Optional

from repro.consensus.command import Command
from repro.kvstore.state_machine import StateMachine


class KeyValueStore(StateMachine):
    """A deterministic dictionary-backed key-value store.

    ``put`` stores the command's value under its key and returns the previous
    value; ``get`` returns the current value; ``delete`` removes the key and
    returns the removed value.  Any unknown operation raises ``ValueError`` so
    that replicas never silently diverge on unsupported commands.
    """

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}
        self.applied_count = 0

    def apply(self, command: Command) -> Optional[str]:
        """Apply one command; see class docstring for the operation semantics."""
        self.applied_count += 1
        if command.operation == "put":
            previous = self._data.get(command.key)
            self._data[command.key] = command.value if command.value is not None else ""
            return previous
        if command.operation == "get":
            return self._data.get(command.key)
        if command.operation == "delete":
            return self._data.pop(command.key, None)
        raise ValueError(f"unsupported operation: {command.operation!r}")

    def get(self, key: str) -> Optional[str]:
        """Read a key directly (outside consensus), for tests and examples."""
        return self._data.get(key)

    def snapshot(self) -> dict:
        """Copy of the whole store."""
        return dict(self._data)

    def reset(self) -> None:
        """Remove all keys."""
        self._data.clear()
        self.applied_count = 0
