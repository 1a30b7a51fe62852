"""Network message batching.

The paper evaluates every protocol both with and without network batching
(Figure 9 shows both).  Batching groups the messages a replica sends to the
same destination within a short window into one wire message, which amortizes
the per-message CPU cost (serialization, syscalls) and raises the saturation
throughput at the price of a small added latency.

Batching is decided in the transport
(:class:`~repro.runtime.transport.SimulatorTransport`): outgoing messages are
buffered per destination and flushed either when :data:`WINDOW_MS` expires or
when the batch reaches :data:`MAX_MESSAGES`.  The receiver charges one full
message cost for the batch itself plus :data:`MARGINAL_COST_FACTOR` of a
message's cost for every message inside it.  Figure 9b runs with this one
policy; a test that needs another patches the constants.
"""

from __future__ import annotations

from typing import Tuple

from repro.runtime.codec import SeqCodec, value_type
from repro.runtime.registry import MessageCodec, register_message


@register_message(messages=SeqCodec(MessageCodec()))
@value_type
class MessageBatch:
    """A group of protocol messages delivered as a single wire message.

    On the wire a batch is its envelope plus the concatenated canonical
    encodings of its inner messages (which must themselves be registered).
    """

    messages: Tuple[object, ...]


#: How long a message may wait for companions before its batch is flushed.
WINDOW_MS = 2.0
#: A batch is flushed at once when it holds this many messages.
MAX_MESSAGES = 32
#: Fraction of the normal per-message CPU cost charged for each message inside
#: a batch (the batch envelope itself is charged at full cost).
MARGINAL_COST_FACTOR = 0.25


class BatchBuffer:
    """Per-destination outgoing buffer used by a node with batching enabled."""

    def __init__(self) -> None:
        self._pending: dict = {}

    def add(self, dst: int, message: object) -> bool:
        """Buffer a message for ``dst``.

        Returns ``True`` when the destination's buffer just reached the
        maximum batch size and must be flushed immediately.
        """
        bucket = self._pending.setdefault(dst, [])
        bucket.append(message)
        return len(bucket) >= MAX_MESSAGES

    def has_pending(self, dst: int) -> bool:
        """Whether any messages are waiting for ``dst``."""
        return bool(self._pending.get(dst))

    def drain(self, dst: int) -> MessageBatch:
        """Remove and return the batch for ``dst``."""
        return MessageBatch(messages=tuple(self._pending.pop(dst, ())))
