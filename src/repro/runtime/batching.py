"""Network message batching.

The paper evaluates every protocol both with and without network batching
(Figure 9 shows both).  Batching groups the messages a replica sends to the
same destination within a short window into one wire message, which amortizes
the per-message CPU cost (serialization, syscalls) and raises the saturation
throughput at the price of a small added latency.

Batching is decided in the transport
(:class:`~repro.runtime.transport.SimulatorTransport`): outgoing messages are
buffered per destination and flushed either when the window expires or when
the batch reaches its maximum size.  The receiver charges one full message
cost for the batch itself plus a discounted marginal cost for every message
inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class BatchingConfig:
    """Parameters of the per-destination batching policy.

    Attributes:
        window_ms: how long a message may wait for companions before the
            batch is flushed.
        max_messages: flush immediately once this many messages accumulate.
        marginal_cost_factor: fraction of the normal per-message CPU cost
            charged for each message inside a batch (the batch envelope itself
            is charged at full cost).
    """

    window_ms: float = 2.0
    max_messages: int = 32
    marginal_cost_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        if self.max_messages < 1:
            raise ValueError("max_messages must be at least 1")
        if not 0.0 <= self.marginal_cost_factor <= 1.0:
            raise ValueError("marginal_cost_factor must be within [0, 1]")


class BatchBuffer:
    """Per-destination outgoing buffer used by a node with batching enabled."""

    def __init__(self, config: BatchingConfig) -> None:
        self.config = config
        self._pending: dict = {}

    def add(self, dst: int, message: object) -> bool:
        """Buffer a message for ``dst``.

        Returns ``True`` when the destination's buffer just reached the
        maximum batch size and must be flushed immediately.
        """
        bucket = self._pending.setdefault(dst, [])
        bucket.append(message)
        return len(bucket) >= self.config.max_messages

    def has_pending(self, dst: int) -> bool:
        """Whether any messages are waiting for ``dst``."""
        return bool(self._pending.get(dst))

    def drain(self, dst: int) -> MessageBatch:
        """Remove and return the batch for ``dst``."""
        return MessageBatch(messages=tuple(self._pending.pop(dst, ())))
