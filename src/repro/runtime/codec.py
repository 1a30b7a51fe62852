"""Composable field codecs for the wire-message registry, compiled to source.

A codec describes how one field value becomes bytes and back.  Codecs are
small, stateless objects composed bottom-up: primitives (varints, strings,
booleans) are wrapped by structural codecs (optionals, frozensets, sequences,
structs) until every field of a registered message type has a layout.

A codec does not *interpret* its layout — it *emits* it, once, as Python
source: :meth:`Codec.emit_encode` writes the statements that append a value's
encoding to ``out``, :meth:`Codec.emit_decode` the statements that read one
back from ``data`` at offset ``o``.  Composition happens at emission time (a
frozenset emits a loop around whatever its element emits), so
:func:`compile_codec` turns a whole codec tree into one flat function per
direction: fields in locals, single-byte varints inlined, no per-field method
call.  The registry (:mod:`repro.runtime.registry`) compiles one such pair
per message type, on that type's first use; :func:`compile_codec` is the one
compile path, so each layout has exactly one definition.

Every generated module is registered with :mod:`linecache` under a
``<wire codec NAME>`` filename, so a traceback out of generated code shows
the generated line.

Encodings are deterministic: unordered collections are sorted before
encoding, so the same value always serializes to the same bytes (and the same
byte *count*, which is what the wire accounting relies on).
"""

from __future__ import annotations

import dataclasses
import linecache
import operator
from contextlib import contextmanager
from types import MemberDescriptorType
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Longest varint accepted: 10 bytes carry 70 bits.  No field in the
#: repository comes close, and without a cap a hostile frame of ``0xff``
#: bytes would make the decoder assemble a megabyte-sized integer
#: quadratically.
MAX_VARINT_BYTES = 10


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` (non-negative, below ``2**70``) as a LEB128 varint."""
    if not 0 <= value < 1 << 7 * MAX_VARINT_BYTES:
        raise ValueError(f"uvarint cannot encode {value}: outside [0, 2**70)")
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
        if shift >= 7 * MAX_VARINT_BYTES:
            raise ValueError(f"varint longer than {MAX_VARINT_BYTES} bytes")


class SourceWriter:
    """Accumulates the source of one generated module, for the emitters.

    Generated encoders see ``out`` (a bytearray) and ``ap`` (its ``append``);
    generated decoders see ``data`` and the running offset ``o``.
    """

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._depth = 0
        self._locals = 0
        #: globals of the generated module: the varint slow paths plus every
        #: object (class, slot setter, registry) an emitter bound.
        self.namespace: Dict[str, object] = {"_uv": encode_uvarint, "_duv": decode_uvarint}
        self._bound: Dict[int, str] = {}

    def line(self, text: str) -> None:
        """Add one statement at the current indentation."""
        self._lines.append("    " * self._depth + text)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        """Add ``header`` (``for …:``, ``if …:``) and indent what follows."""
        self.line(header)
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def var(self, hint: str = "v") -> str:
        """A local name no other emitter uses (``hint`` plus a serial number)."""
        self._locals += 1
        return f"{hint}{self._locals}"

    def bind(self, obj: object) -> str:
        """Make ``obj`` a global of the generated module; returns its name."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_k{len(self._bound)}"
            self.namespace[name] = obj
        return name

    def encode_uvarint(self, name: str) -> None:
        """Append the local ``name`` as a varint; one or two bytes need no call."""
        self.line(f"if {name} < 128: ap({name})")
        self.line(f"elif {name} < 16384: ap({name} & 127 | 128); ap({name} >> 7)")
        self.line(f"else: _uv({name}, out)")

    def decode_uvarint(self) -> str:
        """Read a varint into a fresh local; one or two bytes need no call."""
        name, second = self.var(), self.var()
        self.line(f"{name} = data[o]; o += 1")
        with self.block(f"if {name} > 127:"):
            self.line(f"{second} = data[o]")
            self.line(f"if {second} < 128: {name} = {name} & 127 | {second} << 7; o += 1")
            self.line(f"else: {name}, o = _duv(data, o - 1)")
        return name

    def compile(self, label: str, kind: str = "wire codec") -> Dict[str, object]:
        """Execute the module; its source stays readable through linecache
        under ``<KIND LABEL>``."""
        source = "\n".join(self._lines) + "\n"
        filename = f"<{kind} {label}>"
        serial = 1
        while filename in linecache.cache:
            serial += 1
            filename = f"<{kind} {label} #{serial}>"
        exec(compile(source, filename, "exec"), self.namespace)
        # mtime None marks the entry as not backed by a file: checkcache()
        # leaves it alone.
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        return self.namespace


def compile_codec(codec: "Codec", label: str, prefix: bytes) -> Tuple[Callable, Callable]:
    """Compile ``codec``'s emitters into an ``(encode, decode)`` pair.

    ``encode(value) -> bytes`` returns ``prefix`` (a message's type-id bytes)
    followed by the value's encoding; ``decode(data, offset)`` starts *after*
    the prefix and returns ``(value, next_offset)``.
    """
    gen = SourceWriter()
    with gen.block("def encode(v):"):
        gen.line(f"out = bytearray({prefix!r})")
        gen.line("ap = out.append")
        codec.emit_encode(gen, "v")
        gen.line("return bytes(out)")
    with gen.block("def decode(data, o):"):
        gen.line(f"return {codec.emit_decode(gen)}, o")
    namespace = gen.compile(label)
    return namespace["encode"], namespace["decode"]


def value_type(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)`` with a constructor that sets slots.

    A frozen dataclass's own ``__init__`` stores every field through
    ``object.__setattr__``.  The one generated here calls each field's slot
    descriptor instead, as the decoders :class:`StructCodec` generates do,
    and builds an object in a little over half the time; messages, commands,
    timestamps and ballots are built once or more per simulated message.  The
    dataclass is made with ``init=False``, so a class pays for generating one
    constructor, not two.  The constructor takes the same arguments
    (positional or keyword, with the declared defaults); equality, hashing,
    ``repr``, ``dataclasses.replace`` and frozenness are the dataclass's own.
    Hot paths call it positionally, because keyword arguments cost a dict
    first: ``type.__call__`` packs them into one before ``__init__`` runs.
    A field with a ``default_factory``, ``init=False`` or ``kw_only``, and a
    ``__post_init__``, are refused: the generated constructor has no use for
    them.

    Its source reads back through ``linecache.getlines("<value type NAME>")``.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} defines __post_init__, which a value type skips")
    gen = SourceWriter()
    specs = dataclasses.fields(cls)
    params = []
    for spec in specs:
        if (not spec.init or spec.kw_only
                or spec.default_factory is not dataclasses.MISSING):
            raise TypeError(f"{cls.__name__}.{spec.name}: a value type field is a plain "
                            "positional-or-keyword field, with or without a default")
        params.append(spec.name if spec.default is dataclasses.MISSING
                      else f"{spec.name}={gen.bind(spec.default)}")
    with gen.block(f"def __init__({', '.join(['self', *params])}):"):
        for spec in specs:
            gen.line(f"{gen.bind(getattr(cls, spec.name).__set__)}(self, {spec.name})")
        if not specs:
            gen.line("pass")
    init = gen.compile(cls.__qualname__, kind="value type")["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


class Codec:
    """Base interface: emit the statements that encode and decode a value.

    Every subclass defines :meth:`emit_encode` / :meth:`emit_decode`;
    :func:`compile_codec` turns them into functions.
    """

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        """Emit statements appending the local ``value``'s encoding to ``out``."""
        raise NotImplementedError(f"{type(self).__name__} defines no emit_encode")

    def emit_decode(self, gen: SourceWriter) -> str:
        """Emit statements reading one value at ``o``; returns the local holding it."""
        raise NotImplementedError(f"{type(self).__name__} defines no emit_decode")


class UintCodec(Codec):
    """Non-negative integer as a varint."""

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        gen.encode_uvarint(value)

    def emit_decode(self, gen: SourceWriter) -> str:
        return gen.decode_uvarint()


class SintCodec(Codec):
    """Signed integer, zigzag-mapped onto a varint."""

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        zigzag = gen.var()
        gen.line(f"{zigzag} = -2 * {value} - 1 if {value} < 0 else {value} << 1")
        gen.encode_uvarint(zigzag)

    def emit_decode(self, gen: SourceWriter) -> str:
        raw = gen.decode_uvarint()
        result = gen.var()
        gen.line(f"{result} = ({raw} >> 1) ^ -({raw} & 1)")
        return result


class BoolCodec(Codec):
    """Boolean as a single byte."""

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        gen.line(f"ap(1 if {value} else 0)")

    def emit_decode(self, gen: SourceWriter) -> str:
        result = gen.var()
        gen.line(f"{result} = data[o] == 1; o += 1")
        return result


class StrCodec(Codec):
    """Length-prefixed UTF-8 string."""

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        raw, length = gen.var(), gen.var()
        gen.line(f"{raw} = {value}.encode('utf-8')")
        gen.line(f"{length} = len({raw})")
        gen.encode_uvarint(length)
        gen.line(f"out += {raw}")

    def emit_decode(self, gen: SourceWriter) -> str:
        length = gen.decode_uvarint()
        result = gen.var()
        gen.line(f"{result} = data[o:o + {length}].decode('utf-8'); o += {length}")
        return result


class OptionalCodec(Codec):
    """``None`` or an inner value, with a one-byte presence flag."""

    def __init__(self, inner: Codec) -> None:
        self.inner = inner

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        gen.line(f"if {value} is None: ap(0)")
        with gen.block("else:"):
            gen.line("ap(1)")
            self.inner.emit_encode(gen, value)

    def emit_decode(self, gen: SourceWriter) -> str:
        present = gen.var()
        gen.line(f"{present} = data[o]; o += 1")
        with gen.block(f"if {present}:"):
            result = self.inner.emit_decode(gen)
        gen.line(f"else: {result} = None")
        return result


def _tuple_display(names: Sequence[str]) -> str:
    """``(a, b,)``: a tuple display or unpacking target of any length, zero included."""
    return "(" + "".join(name + ", " for name in names).rstrip() + ")"


class TupleCodec(Codec):
    """Fixed-shape tuple: one codec per element, no length prefix.

    Encoding unpacks the value, so a tuple of the wrong length is an error.
    """

    def __init__(self, *elements: Codec) -> None:
        self.elements = elements

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        names = [gen.var() for _ in self.elements]
        gen.line(f"{_tuple_display(names)} = {value}")
        for name, codec in zip(names, self.elements):
            codec.emit_encode(gen, name)

    def emit_decode(self, gen: SourceWriter) -> str:
        names = [codec.emit_decode(gen) for codec in self.elements]
        result = gen.var()
        gen.line(f"{result} = {_tuple_display(names)}")
        return result


class _CollectionCodec(Codec):
    """Length-prefixed homogeneous collection; subclasses fix order and type."""

    #: expression template iterating the value in wire order.
    wire_order = "{}"
    #: constructor rebuilding the collection from the decoded list.
    collection = "tuple"

    def __init__(self, element: Codec) -> None:
        self.element = element

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        length, item = gen.var(), gen.var()
        gen.line(f"{length} = len({value})")
        gen.encode_uvarint(length)
        with gen.block(f"for {item} in {self.wire_order.format(value)}:"):
            self.element.emit_encode(gen, item)

    def emit_decode(self, gen: SourceWriter) -> str:
        length = gen.decode_uvarint()
        items, result = gen.var(), gen.var()
        gen.line(f"{items} = []")
        with gen.block(f"for _ in range({length}):"):
            gen.line(f"{items}.append({self.element.emit_decode(gen)})")
        gen.line(f"{result} = {self.collection}({items})")
        return result


class SeqCodec(_CollectionCodec):
    """Variable-length tuple of homogeneous elements, length-prefixed."""


class FrozenSetCodec(_CollectionCodec):
    """Frozenset of homogeneous elements, sorted so the encoding is canonical."""

    wire_order = "sorted({})"
    collection = "frozenset"


def _require_ascending(items: Sequence) -> None:
    if any(map(operator.ge, items, items[1:])):
        raise ValueError("sequence is not strictly ascending")


class SortedSeqCodec(_CollectionCodec):
    """A set kept as a strictly ascending tuple: the bytes a :class:`FrozenSetCodec`
    writes for the same elements.

    Encoding takes the sequence as it is and decoding rebuilds a tuple, so
    neither sorts; a sequence out of order or with a repeat raises
    ``ValueError`` both ways.
    """

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        gen.line(f"{gen.bind(_require_ascending)}({value})")
        super().emit_encode(gen, value)

    def emit_decode(self, gen: SourceWriter) -> str:
        result = super().emit_decode(gen)
        gen.line(f"{gen.bind(_require_ascending)}({result})")
        return result


class StructCodec(Codec):
    """A frozen slotted dataclass encoded as its fields in order.

    Decoding builds the object without its ``__init__``: ``object.__new__``
    and then each field's slot descriptor, which skips the frozen class's
    per-field ``object.__setattr__`` calls.  That is only the same object the
    constructor would build when the class is a frozen dataclass whose fields
    all live in slots and which has no ``__post_init__``; any other class is
    refused here.

    Args:
        cls: the class of the encoded objects.
        fields: ``(name, codec)`` pairs, in encoding order, one per field.
    """

    def __init__(self, cls: type, fields: Sequence[Tuple[str, Codec]]) -> None:
        self.cls = cls
        self.fields = tuple(fields)
        params = getattr(cls, "__dataclass_params__", None)
        if params is None or not params.frozen:
            raise TypeError(f"{cls.__name__} is not a frozen dataclass")
        if hasattr(cls, "__post_init__"):
            raise TypeError(f"{cls.__name__} defines __post_init__, which decoding "
                            "would skip")
        # A field without a codec would be dropped by encode and left unset
        # by decode, invisibly to round-trip tests, whose strategies are
        # derived from the codecs themselves.
        declared = {spec.name for spec in dataclasses.fields(cls)}
        registered = {name for name, _ in self.fields}
        if declared != registered:
            raise ValueError(
                f"{cls.__name__} registration does not match its fields: "
                f"missing {sorted(declared - registered)}, "
                f"unknown {sorted(registered - declared)}")
        for name, _ in self.fields:
            if not isinstance(getattr(cls, name, None), MemberDescriptorType):
                raise TypeError(f"{cls.__name__}.{name} is not a slot "
                                "(declare the dataclass with slots=True)")

    def emit_encode(self, gen: SourceWriter, value: str) -> None:
        for name, codec in self.fields:
            field = gen.var(name)
            gen.line(f"{field} = {value}.{name}")
            codec.emit_encode(gen, field)

    def emit_decode(self, gen: SourceWriter) -> str:
        values = [(name, codec.emit_decode(gen)) for name, codec in self.fields]
        result = gen.var()
        gen.line(f"{result} = {gen.bind(object.__new__)}({gen.bind(self.cls)})")
        for name, value in values:
            setter = gen.bind(getattr(self.cls, name).__set__)
            gen.line(f"{setter}({result}, {value})")
        return result


#: Shared primitive instances (codecs are stateless).
UINT = UintCodec()
SINT = SintCodec()
BOOL = BoolCodec()
STRING = StrCodec()

#: ``(int, int)`` identifier pairs: command ids, EPaxos instance ids.
ID_PAIR = TupleCodec(SINT, SINT)
