"""The wire format as rules: a reference encoder and decoder, the executable spec.

Every message a TCP replica frames, and every byte the simulator's wire
accounting counts, is the registry's compiled encoding.  This module says
what those bytes must be, one rule per codec kind, over the codecs a message
type is *declared* with (the ``StructCodec`` the registry keeps for it) and
the ids of ``repro.runtime.registry.TYPE_IDS``; ``tests/test_codec_differential.py``
holds the compiled codec to it byte for byte.  EXPERIMENTS.md ("Wire
format") states the same rules in prose.

* uint: LEB128 - seven bits a byte, least significant group first, the high
  bit set on every byte but the last;
* sint: zig-zag (``n >= 0`` is ``2n``, ``n < 0`` is ``-2n - 1``), then LEB128;
* bool: one byte, 1 for true and 0 for false;
* str: the UTF-8 byte length as a uint, then the bytes;
* optional: a presence byte (0 absent, 1 present), then the value if present;
* tuple: its elements in order, no count;
* seq: the count as a uint, then the elements in order;
* frozenset: the count as a uint, then the elements in ascending order;
* sorted seq: a frozenset's bytes, held as a tuple: the count as a uint, then
  the elements, each greater than the one before; a tuple out of that order,
  or bytes that are, is refused both ways;
* struct: its fields in declaration order;
* message: its type id as a uint, then its fields as a struct;
* registry digest (``Hello.digest``): the CRC-32 (the reflected polynomial
  0xEDB88320, initial value and final xor 0xFFFFFFFF) of the type-id table as
  UTF-8 text, one ``"<module.qualname> <id>\n"`` line per row in id order.

It imports the codec classes only to tell the kinds apart, and nothing that
encodes or decodes.
"""

from __future__ import annotations

import sys

from repro.runtime.codec import (
    BoolCodec,
    FrozenSetCodec,
    OptionalCodec,
    SeqCodec,
    SintCodec,
    SortedSeqCodec,
    StrCodec,
    StructCodec,
    TupleCodec,
    UintCodec,
)
from repro.runtime.registry import TYPE_IDS, MessageCodec


def _uint(value: int, out: bytearray) -> None:
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _read_uint(data: bytes, offset: int) -> tuple:
    value = shift = 0
    while True:
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, offset
        shift += 7


def _ascending(items) -> None:
    for before, after in zip(items, items[1:]):
        if not before < after:
            raise ValueError(f"{before} is not below {after}")


def _type_id(cls: type) -> int:
    return TYPE_IDS[f"{cls.__module__}.{cls.__qualname__}"]


def _class_of(type_id: int) -> type:
    """The (already imported) message class the table gives ``type_id``."""
    name = next(name for name, row in TYPE_IDS.items() if row == type_id)
    module, _, qualname = name.rpartition(".")
    return getattr(sys.modules[module], qualname)


def _encode(codec, value, out: bytearray) -> None:
    kind = type(codec)
    if kind is UintCodec:
        _uint(value, out)
    elif kind is SintCodec:
        _uint(2 * value if value >= 0 else -2 * value - 1, out)
    elif kind is BoolCodec:
        out.append(1 if value else 0)
    elif kind is StrCodec:
        raw = value.encode("utf-8")
        _uint(len(raw), out)
        out += raw
    elif kind is OptionalCodec:
        out.append(0 if value is None else 1)
        if value is not None:
            _encode(codec.inner, value, out)
    elif kind is TupleCodec:
        for element, item in zip(codec.elements, value, strict=True):
            _encode(element, item, out)
    elif kind in (SeqCodec, FrozenSetCodec, SortedSeqCodec):
        if kind is SortedSeqCodec:
            _ascending(value)
        _uint(len(value), out)
        for item in sorted(value) if kind is FrozenSetCodec else value:
            _encode(codec.element, item, out)
    elif kind in (StructCodec, MessageCodec):
        if kind is MessageCodec:
            _uint(_type_id(type(value)), out)
            fields = codec.registry._codecs[type(value)].fields
        else:
            fields = codec.fields
        for name, field in fields:
            _encode(field, getattr(value, name), out)
    else:
        raise TypeError(f"no wire rule for {kind.__name__}")


def encode(codec, value) -> bytes:
    """The bytes the wire format gives ``value`` under ``codec``."""
    out = bytearray()
    _encode(codec, value, out)
    return bytes(out)


def decode(codec, data: bytes, offset: int) -> tuple:
    """``(value, end offset)`` of the value encoded under ``codec`` at ``offset``."""
    kind = type(codec)
    if kind is UintCodec:
        return _read_uint(data, offset)
    if kind is SintCodec:
        raw, offset = _read_uint(data, offset)
        return (-(raw + 1) // 2 if raw % 2 else raw // 2), offset
    if kind is BoolCodec:
        return data[offset] == 1, offset + 1
    if kind is StrCodec:
        length, offset = _read_uint(data, offset)
        return data[offset:offset + length].decode("utf-8"), offset + length
    if kind is OptionalCodec:
        if data[offset] == 0:
            return None, offset + 1
        return decode(codec.inner, data, offset + 1)
    if kind in (TupleCodec, SeqCodec, FrozenSetCodec, SortedSeqCodec):
        if kind is TupleCodec:
            elements = codec.elements
        else:
            count, offset = _read_uint(data, offset)
            elements = [codec.element] * count
        items = []
        for element in elements:
            item, offset = decode(element, data, offset)
            items.append(item)
        if kind is SortedSeqCodec:
            _ascending(items)
        return (frozenset if kind is FrozenSetCodec else tuple)(items), offset
    if kind in (StructCodec, MessageCodec):
        if kind is MessageCodec:
            type_id, offset = _read_uint(data, offset)
            cls = _class_of(type_id)
            fields = codec.registry._codecs[cls].fields
        else:
            cls, fields = codec.cls, codec.fields
        values = {}
        for name, field in fields:
            values[name], offset = decode(field, data, offset)
        return cls(**values), offset
    raise TypeError(f"no wire rule for {kind.__name__}")


def registry_digest(type_ids) -> int:
    """The digest a ``Hello`` carries: CRC-32 of the table, one line per row."""
    text = "".join(f"{name} {type_id}\n"
                   for name, type_id in sorted(type_ids.items(), key=lambda row: row[1]))
    crc = 0xFFFFFFFF
    for byte in text.encode("utf-8"):
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF
