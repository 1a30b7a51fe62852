"""The interpreted wire codec of commit 3a13b3e, verbatim: the executable spec.

Until the compiled codec replaced it, ``MessageRegistry.encode`` walked a tree
of ``Codec`` objects, one method call per field.  That tree lives on here —
the ``encode`` / ``decode`` bodies below are the parent's, the classes only
renamed — as the reference the compiled codec is checked against byte for
byte (``tests/test_codec_differential.py``) and timed against
(``benchmarks/test_micro_decision_path.py``).  It shares no code with
``repro.runtime.codec``: the varint helpers are copied too.

:func:`interpreted_registry` mirrors a live registry's declarations
(``types()``, ``field_codecs()``, ``.inner`` / ``.element`` / ``.elements`` /
``.fields`` / ``.cls``) into a tree of these classes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Type

from repro.runtime import codec as compiled
from repro.runtime.registry import MessageCodec, MessageRegistry

#: Decoder result: (value, next_offset).
Decoded = Tuple[object, int]


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` (non-negative) as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read a LEB128 varint from ``data`` at ``offset``."""
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


class InterpretedCodec:
    """Base interface: encode a value into a bytearray, decode it back."""

    def encode(self, value: object, out: bytearray) -> None:
        raise NotImplementedError

    def decode(self, data: bytes, offset: int) -> Decoded:
        raise NotImplementedError


class InterpretedUintCodec(InterpretedCodec):
    """Non-negative integer as a varint."""

    def encode(self, value: object, out: bytearray) -> None:
        encode_uvarint(value, out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        return decode_uvarint(data, offset)


class InterpretedSintCodec(InterpretedCodec):
    """Signed integer, zigzag-mapped onto a varint."""

    def encode(self, value: object, out: bytearray) -> None:
        encode_uvarint(-2 * value - 1 if value < 0 else value << 1, out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        raw, offset = decode_uvarint(data, offset)
        return (raw >> 1) ^ -(raw & 1), offset


class InterpretedBoolCodec(InterpretedCodec):
    """Boolean as a single byte."""

    def encode(self, value: object, out: bytearray) -> None:
        out.append(1 if value else 0)

    def decode(self, data: bytes, offset: int) -> Decoded:
        return data[offset] == 1, offset + 1


class InterpretedStrCodec(InterpretedCodec):
    """Length-prefixed UTF-8 string."""

    def encode(self, value: object, out: bytearray) -> None:
        raw = value.encode("utf-8")
        encode_uvarint(len(raw), out)
        out += raw

    def decode(self, data: bytes, offset: int) -> Decoded:
        length, offset = decode_uvarint(data, offset)
        return data[offset:offset + length].decode("utf-8"), offset + length


class InterpretedOptionalCodec(InterpretedCodec):
    """``None`` or an inner value, with a one-byte presence flag."""

    def __init__(self, inner: InterpretedCodec) -> None:
        self.inner = inner

    def encode(self, value: object, out: bytearray) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            self.inner.encode(value, out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        present = data[offset]
        offset += 1
        if not present:
            return None, offset
        return self.inner.decode(data, offset)


class InterpretedTupleCodec(InterpretedCodec):
    """Fixed-shape tuple: one codec per element, no length prefix."""

    def __init__(self, *elements: InterpretedCodec) -> None:
        self.elements = elements

    def encode(self, value: object, out: bytearray) -> None:
        for element, codec in zip(value, self.elements):
            codec.encode(element, out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        values = []
        for codec in self.elements:
            value, offset = codec.decode(data, offset)
            values.append(value)
        return tuple(values), offset


class InterpretedSeqCodec(InterpretedCodec):
    """Variable-length tuple of homogeneous elements, length-prefixed."""

    def __init__(self, element: InterpretedCodec) -> None:
        self.element = element

    def encode(self, value: object, out: bytearray) -> None:
        encode_uvarint(len(value), out)
        for element in value:
            self.element.encode(element, out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        length, offset = decode_uvarint(data, offset)
        values = []
        for _ in range(length):
            value, offset = self.element.decode(data, offset)
            values.append(value)
        return tuple(values), offset


class InterpretedFrozenSetCodec(InterpretedCodec):
    """Frozenset of homogeneous elements, sorted so the encoding is canonical."""

    def __init__(self, element: InterpretedCodec) -> None:
        self.element = element

    def encode(self, value: object, out: bytearray) -> None:
        encode_uvarint(len(value), out)
        for element in sorted(value):
            self.element.encode(element, out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        length, offset = decode_uvarint(data, offset)
        values = []
        for _ in range(length):
            value, offset = self.element.decode(data, offset)
            values.append(value)
        return frozenset(values), offset


class InterpretedStructCodec(InterpretedCodec):
    """A fixed-field object (dataclass) encoded as its fields in order."""

    def __init__(self, factory: Callable,
                 fields: Sequence[Tuple[str, InterpretedCodec]]) -> None:
        self.factory = factory
        self.fields = tuple(fields)

    def encode(self, value: object, out: bytearray) -> None:
        for name, codec in self.fields:
            codec.encode(getattr(value, name), out)

    def decode(self, data: bytes, offset: int) -> Decoded:
        kwargs = {}
        for name, codec in self.fields:
            kwargs[name], offset = codec.decode(data, offset)
        return self.factory(**kwargs), offset


class InterpretedRegistry:
    """The parent's ``MessageRegistry`` encode/decode, over interpreted codecs."""

    def __init__(self) -> None:
        self._codecs: Dict[Type, InterpretedStructCodec] = {}
        self._type_ids: Dict[Type, int] = {}
        self._by_id: List[Type] = []

    def register(self, cls: Type, field_codecs: Dict[str, InterpretedCodec]) -> Type:
        self._type_ids[cls] = len(self._by_id)
        self._by_id.append(cls)
        self._codecs[cls] = InterpretedStructCodec(cls, list(field_codecs.items()))
        return cls

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
        """Rebuild a message from :meth:`encode` output."""
        type_id, offset = decode_uvarint(data, offset)
        cls = self._by_id[type_id]
        return self._codecs[cls].decode(data, offset)

    def decode_one(self, data: bytes) -> object:
        """Decode a single message, ignoring the trailing offset."""
        message, _ = self.decode(data)
        return message


class InterpretedMessageCodec(InterpretedCodec):
    """Codec for a field holding any *registered* message (used by batches)."""

    def __init__(self, registry: InterpretedRegistry) -> None:
        self.registry = registry

    def encode(self, value: object, out: bytearray) -> None:
        out += self.registry.encode(value)

    def decode(self, data: bytes, offset: int):
        return self.registry.decode(data, offset)


# ------------------------------------------------- mirroring a live registry

_LEAVES = {
    compiled.UintCodec: InterpretedUintCodec,
    compiled.SintCodec: InterpretedSintCodec,
    compiled.BoolCodec: InterpretedBoolCodec,
    compiled.StrCodec: InterpretedStrCodec,
}


def interpreted(codec: compiled.Codec, registry: InterpretedRegistry) -> InterpretedCodec:
    """The interpreted twin of a declared codec tree (read off its public surface)."""
    kind = type(codec)
    if kind in _LEAVES:
        return _LEAVES[kind]()
    if kind is compiled.OptionalCodec:
        return InterpretedOptionalCodec(interpreted(codec.inner, registry))
    if kind is compiled.TupleCodec:
        return InterpretedTupleCodec(*(interpreted(e, registry) for e in codec.elements))
    if kind is compiled.SeqCodec:
        return InterpretedSeqCodec(interpreted(codec.element, registry))
    if kind is compiled.FrozenSetCodec:
        return InterpretedFrozenSetCodec(interpreted(codec.element, registry))
    if kind is compiled.StructCodec:
        return InterpretedStructCodec(
            codec.cls, [(name, interpreted(field, registry))
                            for name, field in codec.fields])
    if kind is MessageCodec:
        return InterpretedMessageCodec(registry)
    raise NotImplementedError(f"no interpreted twin for {kind.__name__}")


def interpreted_registry(registry: MessageRegistry) -> InterpretedRegistry:
    """An interpreted registry with ``registry``'s types, ids and layouts."""
    twin = InterpretedRegistry()
    for cls in registry.types():
        twin.register(cls, {name: interpreted(codec, twin)
                            for name, codec in registry.field_codecs(cls).items()})
    return twin
