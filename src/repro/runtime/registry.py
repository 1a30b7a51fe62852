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

* **one canonical wire form** — :meth:`MessageRegistry.encode` is what the
  TCP substrate puts in every frame and what the simulator's wire accounting
  measures, so footprint benchmarks count encoded bytes instead of
  per-protocol size estimates;
* **a uniform codec** — :meth:`MessageRegistry.decode` rebuilds the message
  from its bytes, with encode→decode identity enforced by property tests, and
  answers anything that is not a valid encoding with one
  :class:`WireDecodeError`;
* **an enumerable message universe** — the Hypothesis round-trip suite and
  the docs iterate :meth:`MessageRegistry.types` instead of hand-listing
  per-protocol messages.

Registration itself only records the layout.  The first ``encode`` or
``decode`` of a type compiles its field codecs' emitters
(:func:`repro.runtime.codec.compile_codec`) into one flat function per
direction with the type-id prefix folded in; a process pays for the handful
of types it actually sends, and importing the package compiles none.
Dispatch stays exact-type (the kernel maps ``type(message)`` to a handler)
and the simulator passes messages by reference, so nothing is encoded there
unless wire accounting is on; over TCP every message crosses this module
twice.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.runtime.codec import (Codec, SourceWriter, StructCodec, compile_codec,
                                 decode_uvarint, encode_uvarint)


class WireDecodeError(ValueError):
    """Raised when bytes handed to the registry are not a valid encoding."""


class MessageRegistry:
    """Maps registered message classes to type ids and compiled codecs."""

    def __init__(self) -> None:
        self._codecs: Dict[Type, StructCodec] = {}
        self._by_id: List[Type] = []
        #: compiled lazily, both directions of a type at once (see _compile).
        self._encoders: Dict[Type, Callable[[object], bytes]] = {}
        self._decoders: Dict[int, Callable[[bytes, int], Tuple[object, int]]] = {}

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
        self._by_id.append(cls)
        self._codecs[cls] = StructCodec(factory or cls, list(field_codecs.items()))
        return cls

    def types(self) -> List[Type]:
        """Every registered message class, in registration order."""
        return list(self._by_id)

    def field_codecs(self, cls: Type) -> Dict[str, Codec]:
        """The per-field codecs ``cls`` was registered with."""
        return dict(self._codecs[cls].fields)

    def _compile(self, type_id: int) -> None:
        """Generate and install the codec functions of one registered type."""
        cls = self._by_id[type_id]
        prefix = bytearray()
        encode_uvarint(type_id, prefix)
        self._encoders[cls], self._decoders[type_id] = compile_codec(
            self._codecs[cls], cls.__name__, bytes(prefix))

    def encode(self, message: object) -> bytes:
        """Canonical wire form: type-id varint followed by the encoded fields."""
        cls = type(message)
        encoder = self._encoders.get(cls)
        if encoder is None:
            if cls not in self._codecs:
                raise KeyError(f"message type {cls.__name__} is not registered")
            self._compile(self._by_id.index(cls))
            encoder = self._encoders[cls]
        return encoder(message)

    def decode(self, data: bytes, offset: int = 0):
        """Rebuild a message from :meth:`encode` output.

        Returns ``(message, next_offset)`` so nested encodings (batches) can
        decode in sequence.  Truncated, corrupt or hostile bytes raise
        :class:`WireDecodeError`, whatever went wrong underneath.
        """
        try:
            type_id = data[offset]
            offset += 1
            if type_id > 127:
                type_id, offset = decode_uvarint(data, offset - 1)
            decoder = self._decoders.get(type_id)
            if decoder is None:
                if type_id >= len(self._by_id):
                    raise WireDecodeError(f"unknown message type id {type_id}")
                self._compile(type_id)
                decoder = self._decoders[type_id]
            return decoder(data, offset)
        except WireDecodeError:
            raise
        except (IndexError, UnicodeDecodeError, TypeError, ValueError,
                RecursionError) as error:
            raise WireDecodeError(
                f"malformed {len(data)}-byte payload: "
                f"{type(error).__name__}: {error}") from error

    def decode_one(self, data: bytes) -> object:
        """Decode exactly one message spanning all of ``data``."""
        message, end = self.decode(data)
        if end != len(data):
            raise WireDecodeError(
                f"{type(message).__name__} ends at byte {end} "
                f"of a {len(data)}-byte payload")
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

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        gen.line(f"out += {gen.bind(self.registry)}.encode({value})")

    def emit_decode(self, gen: SourceWriter) -> str:
        result = gen.var()
        gen.line(f"{result}, o = {gen.bind(self.registry)}.decode(data, o)")
        return result
