"""Sequential specification of the key-value store, per key.

The linearizability checker needs an executable model of what each operation
*should* return when applied to a register holding the key's current value.
This module states :class:`~repro.kvstore.store.KeyValueStore`'s semantics in
that per-key register form (``None`` models an absent key):

* ``put v``    — stores ``v`` (an absent argument stores ``""``), returns the
  previous value;
* ``get``      — returns the current value;
* ``delete``   — removes the key, returns the removed value.

``tests/test_chaos_checker.py`` pins the spec to the real store with a
property test, so the two can never drift apart silently.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Value of one key's register; ``None`` means the key is absent.
RegisterState = Optional[str]


def apply_op(state: RegisterState, operation: str,
             value: Optional[str]) -> Tuple[RegisterState, Optional[str]]:
    """Apply one operation to a key's register.

    Args:
        state: the register's current value (``None`` = absent).
        operation: ``"put"``, ``"get"`` or ``"delete"``.
        value: the argument written by a ``put``.

    Returns:
        ``(new_state, output)`` — the register after the operation and the
        value the operation returns to the client.
    """
    if operation == "put":
        return (value if value is not None else "", state)
    if operation == "get":
        return (state, state)
    if operation == "delete":
        return (None, state)
    raise ValueError(f"unsupported operation: {operation!r}")
