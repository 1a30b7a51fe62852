"""Declarative wire-message registry.

Every protocol message type in the repository is registered here exactly
once, with one :class:`~repro.runtime.codec.Codec` per field::

    @register_message(command=COMMAND, ballot=BALLOT, timestamp=TIMESTAMP)
    @dataclass(frozen=True, slots=True)
    class FastPropose:
        command: Command
        ballot: Ballot
        timestamp: LogicalTimestamp

Registration buys three things:

* **byte-accurate wire accounting** — :meth:`MessageRegistry.encode` produces
  the message's canonical wire form, so footprint benchmarks measure encoded
  bytes instead of per-protocol size estimates;
* **a uniform codec** — :meth:`MessageRegistry.decode` rebuilds the message
  from its bytes, with encode→decode identity enforced by property tests;
* **an enumerable message universe** — the Hypothesis round-trip suite and
  the docs iterate :meth:`MessageRegistry.types` instead of hand-listing
  per-protocol messages.

Dispatch stays exact-type (the kernel maps ``type(message)`` to a handler),
so registration never slows the simulation hot path; encoding happens only
when wire accounting is enabled.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Type

from repro.runtime.codec import Codec, StructCodec, decode_uvarint, encode_uvarint


class MessageRegistry:
    """Maps registered message classes to type ids and field codecs."""

    def __init__(self) -> None:
        self._codecs: Dict[Type, StructCodec] = {}
        self._type_ids: Dict[Type, int] = {}
        self._by_id: List[Type] = []

    def register(self, cls: Type, field_codecs: Dict[str, Codec],
                 factory: Optional[Callable] = None) -> Type:
        """Register ``cls`` with one codec per field (in field order).

        Every dataclass field must have a codec: a field silently missing
        from the registration would be dropped by encode and restored to its
        default by decode — invisible to round-trip tests, which derive
        their strategies from the registration itself.
        """
        if cls in self._codecs:
            raise ValueError(f"message type {cls.__name__} already registered")
        if dataclasses.is_dataclass(cls):
            declared = {spec.name for spec in dataclasses.fields(cls)}
            registered = set(field_codecs)
            if declared != registered:
                raise ValueError(
                    f"{cls.__name__} registration does not match its fields: "
                    f"missing {sorted(declared - registered)}, "
                    f"unknown {sorted(registered - declared)}")
        self._type_ids[cls] = len(self._by_id)
        self._by_id.append(cls)
        self._codecs[cls] = StructCodec(factory or cls, list(field_codecs.items()))
        return cls

    def types(self) -> List[Type]:
        """Every registered message class, in registration order."""
        return list(self._by_id)

    def field_codecs(self, cls: Type) -> Dict[str, Codec]:
        """The per-field codecs ``cls`` was registered with."""
        return dict(self._codecs[cls].fields)

    def encode(self, message: object) -> bytes:
        """Canonical wire form: type-id varint followed by the encoded fields."""
        cls = type(message)
        codec = self._codecs.get(cls)
        if codec is None:
            raise KeyError(f"message type {cls.__name__} is not registered")
        out = bytearray()
        encode_uvarint(self._type_ids[cls], out)
        codec.encode(message, out)
        return bytes(out)

    def decode(self, data: bytes, offset: int = 0):
        """Rebuild a message from :meth:`encode` output.

        Returns ``(message, next_offset)`` so nested encodings (batches) can
        decode in sequence.
        """
        type_id, offset = decode_uvarint(data, offset)
        cls = self._by_id[type_id]
        return self._codecs[cls].decode(data, offset)

    def decode_one(self, data: bytes) -> object:
        """Decode a single message, ignoring the trailing offset."""
        message, _ = self.decode(data)
        return message

    def wire_size(self, message: object) -> int:
        """Size in bytes of the message's canonical wire form."""
        return len(self.encode(message))


#: The process-wide registry every protocol registers its messages with.
WIRE = MessageRegistry()


def register_message(_registry: Optional[MessageRegistry] = None, **field_codecs: Codec):
    """Class decorator registering a message type with :data:`WIRE`.

    Usage::

        @register_message(slot=UINT, command=COMMAND)
        @dataclass(frozen=True, slots=True)
        class SlotPropose: ...

    Field codecs must be passed in the class's field order (they become the
    wire layout).
    """
    registry = _registry or WIRE

    def decorate(cls: Type) -> Type:
        return registry.register(cls, field_codecs)

    return decorate


class MessageCodec(Codec):
    """Codec for a field holding any *registered* message (used by batches)."""

    def __init__(self, registry: Optional[MessageRegistry] = None) -> None:
        self.registry = registry or WIRE

    def encode(self, value: object, out: bytearray) -> None:
        out += self.registry.encode(value)

    def decode(self, data: bytes, offset: int):
        return self.registry.decode(data, offset)
