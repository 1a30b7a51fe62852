"""Declarative wire-message registry.

Every protocol message type in the repository is registered here exactly
once, with one :class:`~repro.runtime.codec.Codec` per field::

    @register_message(command=COMMAND, ballot=BALLOT, timestamp=TIMESTAMP)
    @dataclass(frozen=True, slots=True)
    class FastPropose:
        command: Command
        ballot: Ballot
        timestamp: LogicalTimestamp

A message type's wire id is its row in :data:`TYPE_IDS`, so it is the same
in every process whichever modules that process imports, and in whatever
order.  Registration buys three things:

* **one canonical wire form** — :meth:`MessageRegistry.encode` is what the
  TCP substrate puts in every frame and what the simulator's wire accounting
  measures, so footprint benchmarks count encoded bytes instead of
  per-protocol size estimates;
* **a uniform codec** — :meth:`MessageRegistry.decode` rebuilds the message
  from its bytes, with encode→decode identity enforced by property tests, and
  answers anything that is not a valid encoding with one
  :class:`WireDecodeError`;
* **an enumerable message universe** — the Hypothesis round-trip suite
  imports every module :data:`TYPE_IDS` names and iterates
  :meth:`MessageRegistry.types` instead of hand-listing per-protocol messages.

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


#: The wire type id of every message class, by ``module.qualname``.  Both ends
#: of a socket must agree on these, and a process registers only the classes
#: of the modules it imports, in whatever order it imports them: the id is
#: therefore read from this table, never counted.  A new message type takes
#: the next free id; an id, once released, is not reused.
TYPE_IDS: Dict[str, int] = {
    "repro.runtime.batching.MessageBatch": 0,
    "repro.sim.failures.Heartbeat": 1,
    "repro.core.messages.FastPropose": 2,
    "repro.core.messages.FastProposeReply": 3,
    "repro.core.messages.SlowPropose": 4,
    "repro.core.messages.SlowProposeReply": 5,
    "repro.core.messages.Retry": 6,
    "repro.core.messages.RetryReply": 7,
    "repro.core.messages.Stable": 8,
    "repro.core.messages.Recovery": 9,
    "repro.core.messages.RecoveryReply": 10,
    "repro.runtime.kernel.CatchUpRequest": 11,
    "repro.runtime.kernel.CatchUpReply": 12,
    "repro.baselines.epaxos.PreAccept": 13,
    "repro.baselines.epaxos.PreAcceptReply": 14,
    "repro.baselines.epaxos.Accept": 15,
    "repro.baselines.epaxos.AcceptReply": 16,
    "repro.baselines.epaxos.Commit": 17,
    "repro.baselines.epaxos.Prepare": 18,
    "repro.baselines.epaxos.PrepareReply": 19,
    "repro.baselines.m2paxos.AcquireOwnership": 20,
    "repro.baselines.m2paxos.AcquireReply": 21,
    "repro.baselines.m2paxos.ForwardCommand": 22,
    "repro.baselines.m2paxos.AcceptCommand": 23,
    "repro.baselines.m2paxos.AcceptCommandReply": 24,
    "repro.baselines.m2paxos.AcceptNack": 25,
    "repro.baselines.m2paxos.DecideCommand": 26,
    "repro.baselines.mencius.SlotPropose": 27,
    "repro.baselines.mencius.SlotAck": 28,
    "repro.baselines.mencius.SlotCommit": 29,
    "repro.baselines.mencius.SkipAnnounce": 30,
    "repro.baselines.multipaxos.ClientForward": 31,
    "repro.baselines.multipaxos.AcceptSlot": 32,
    "repro.baselines.multipaxos.AcceptSlotReply": 33,
    "repro.baselines.multipaxos.CommitSlot": 34,
    "repro.baselines.multipaxos.LeaderPrepare": 35,
    "repro.baselines.multipaxos.LeaderPrepareReply": 36,
    "repro.net.wire.Hello": 37,
    "repro.net.wire.ClientRequest": 38,
    "repro.net.wire.ClientReply": 39,
    "repro.net.wire.StatsRequest": 40,
    "repro.net.wire.StatsReply": 41,
}


def _table_name(cls: Type) -> str:
    """The key of ``cls`` in a type-id table."""
    return f"{cls.__module__}.{cls.__qualname__}"


class MessageRegistry:
    """Maps registered message classes to type ids and compiled codecs.

    ``type_ids`` is the ``module.qualname -> id`` table the registry numbers
    its classes from (:data:`TYPE_IDS` for :data:`WIRE`).
    """

    def __init__(self, type_ids: Dict[str, int]) -> None:
        self._type_ids = type_ids
        self._codecs: Dict[Type, StructCodec] = {}
        #: only the classes this process has imported; ids need not be dense.
        self._by_id: Dict[int, Type] = {}
        #: compiled lazily, both directions of a type at once (see _compile).
        self._encoders: Dict[Type, Callable[[object], bytes]] = {}
        self._decoders: Dict[int, Callable[[bytes, int], Tuple[object, int]]] = {}

    def register(self, cls: Type, field_codecs: Dict[str, Codec],
                 factory: Optional[Callable] = None) -> Type:
        """Register ``cls`` with one codec per field (in field order).

        The class must have a row of its own in the type-id table: one that is
        missing, or whose id another row also claims, is refused here, when
        its module is imported, and not when a peer first fails to decode it.

        Every dataclass field must have a codec: a field silently missing
        from the registration would be dropped by encode and restored to its
        default by decode — invisible to round-trip tests, which derive
        their strategies from the registration itself.
        """
        if cls in self._codecs:
            raise ValueError(f"message type {cls.__name__} already registered")
        name = _table_name(cls)
        type_id = self._type_ids.get(name)
        if type_id is None:
            raise ValueError(f"message type {name} has no row in the type-id table")
        for other, other_id in self._type_ids.items():
            if other_id == type_id and other != name:
                raise ValueError(
                    f"message type {name} shares type id {type_id} with {other}")
        if dataclasses.is_dataclass(cls):
            declared = {spec.name for spec in dataclasses.fields(cls)}
            registered = set(field_codecs)
            if declared != registered:
                raise ValueError(
                    f"{cls.__name__} registration does not match its fields: "
                    f"missing {sorted(declared - registered)}, "
                    f"unknown {sorted(registered - declared)}")
        self._by_id[type_id] = cls
        self._codecs[cls] = StructCodec(factory or cls, list(field_codecs.items()))
        return cls

    def types(self) -> List[Type]:
        """Every message class registered in this process, in type-id order."""
        return [self._by_id[type_id] for type_id in sorted(self._by_id)]

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
            self._compile(self._type_ids[_table_name(cls)])
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
                # Also an id of the table whose module this process never
                # imported: nothing is loaded on a peer's say-so.
                if type_id not in self._by_id:
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
WIRE = MessageRegistry(TYPE_IDS)


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
