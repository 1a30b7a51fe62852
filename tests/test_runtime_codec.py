"""Property tests for the runtime message registry and codec.

Two invariants hold for *every* registered wire-message type (the strategies
are derived from the registered field codecs, so newly registered messages
are covered automatically):

* encode -> decode is the identity;
* the encoding is canonical — re-encoding the same value yields the same
  bytes, so codec-measured wire sizes are stable.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys
import traceback

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.net.wire import StatsReply
from repro.runtime.batching import MessageBatch
from repro.runtime.codec import (
    BoolCodec,
    Codec,
    FrozenSetCodec,
    OptionalCodec,
    SeqCodec,
    SintCodec,
    StrCodec,
    StructCodec,
    TupleCodec,
    UintCodec,
    decode_uvarint,
    encode_uvarint,
)
from repro.runtime.registry import (TYPE_IDS, WIRE, MessageCodec, MessageRegistry,
                                    register_message)
from repro.sim.failures import Heartbeat

#: Keys/operations stay printable but include unicode to exercise UTF-8 paths.
_TEXT = st.text(max_size=24)

#: Inner-message strategy for batch-typed fields (must itself be registered).
_INNER_MESSAGE = st.builds(Heartbeat,
                           sender=st.integers(0, 100), sequence=st.integers(0, 2**20))


def strategy_for(codec) -> st.SearchStrategy:
    """Build a Hypothesis strategy producing values the codec accepts."""
    if isinstance(codec, UintCodec):
        return st.integers(0, 2**48)
    if isinstance(codec, SintCodec):
        return st.integers(-2**48, 2**48)
    if isinstance(codec, BoolCodec):
        return st.booleans()
    if isinstance(codec, StrCodec):
        return _TEXT
    if isinstance(codec, OptionalCodec):
        return st.none() | strategy_for(codec.inner)
    if isinstance(codec, TupleCodec):
        return st.tuples(*(strategy_for(element) for element in codec.elements))
    if isinstance(codec, SeqCodec):
        return st.lists(strategy_for(codec.element), max_size=4).map(tuple)
    if isinstance(codec, FrozenSetCodec):
        return st.frozensets(strategy_for(codec.element), max_size=4)
    if isinstance(codec, StructCodec):
        return st.builds(codec.factory,
                         **{name: strategy_for(field) for name, field in codec.fields})
    if isinstance(codec, MessageCodec):
        return _INNER_MESSAGE
    raise NotImplementedError(f"no strategy for codec {type(codec).__name__}")


def row(cls) -> str:
    """The key of ``cls`` in a type-id table."""
    return f"{cls.__module__}.{cls.__qualname__}"


def all_wire_types() -> list:
    """Every message class of the type-id table, in id order.

    A process registers only the modules it imports, so the suites that cover
    "every type" import each module the table names instead of trusting
    whatever happens to be loaded at collection time.
    """
    for name in TYPE_IDS:
        importlib.import_module(name.rpartition(".")[0])
    return WIRE.types()


def message_strategy(cls) -> st.SearchStrategy:
    """Strategy over fully populated instances of a registered message type."""
    return st.builds(cls, **{name: strategy_for(codec)
                             for name, codec in WIRE.field_codecs(cls).items()})


@pytest.mark.parametrize("cls", all_wire_types(), ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_encode_decode_roundtrip_and_stable_size(cls, data):
    message = data.draw(message_strategy(cls))
    encoded = WIRE.encode(message)
    assert WIRE.decode_one(encoded) == message
    # Canonical: the same value always produces the same bytes (and size).
    assert WIRE.encode(message) == encoded
    assert WIRE.wire_size(message) == len(encoded)


def test_every_protocol_message_universe_is_registered():
    """The registry covers all five protocols plus the substrate envelopes."""
    names = {cls.__name__ for cls in all_wire_types()}
    expected = {
        # substrate
        "MessageBatch", "Heartbeat",
        # caesar
        "FastPropose", "FastProposeReply", "SlowPropose", "SlowProposeReply",
        "Retry", "RetryReply", "Stable", "Recovery", "RecoveryReply",
        # epaxos
        "PreAccept", "PreAcceptReply", "Accept", "AcceptReply", "Commit",
        "Prepare", "PrepareReply",
        # multipaxos
        "ClientForward", "AcceptSlot", "AcceptSlotReply", "CommitSlot",
        "LeaderPrepare", "LeaderPrepareReply",
        # mencius
        "SlotPropose", "SlotAck", "SlotCommit", "SkipAnnounce",
        # m2paxos
        "AcquireOwnership", "AcquireReply", "ForwardCommand", "AcceptCommand",
        "AcceptCommandReply", "AcceptNack", "DecideCommand",
    }
    assert expected <= names


#: Class names in wire-id order, as they have been since the table was written
#: (PR 22).  A module may move; a class's id may not.
WIRE_NAMES_BY_ID = """
    MessageBatch Heartbeat
    FastPropose FastProposeReply SlowPropose SlowProposeReply Retry RetryReply Stable
    Recovery RecoveryReply
    CatchUpRequest CatchUpReply
    PreAccept PreAcceptReply Accept AcceptReply Commit Prepare PrepareReply
    AcquireOwnership AcquireReply ForwardCommand AcceptCommand AcceptCommandReply AcceptNack
    DecideCommand
    SlotPropose SlotAck SlotCommit SkipAnnounce
    ClientForward AcceptSlot AcceptSlotReply CommitSlot LeaderPrepare LeaderPrepareReply
    Hello ClientRequest ClientReply StatsRequest StatsReply
""".split()


def test_every_row_of_the_type_id_table_is_registered_under_its_id():
    """The table is the golden file: 42 ids, 0 ``MessageBatch`` … 41 ``StatsReply``."""
    assert list(TYPE_IDS.values()) == list(range(42))
    # ``types()`` is in id order and the table is written in id order.
    assert [row(cls) for cls in all_wire_types()] == list(TYPE_IDS)
    assert [name.rpartition(".")[2] for name in TYPE_IDS] == WIRE_NAMES_BY_ID
    assert WIRE.encode(MessageBatch(messages=()))[0] == 0
    assert WIRE.encode(StatsReply(sender=1, payload=""))[0] == 41


def test_a_class_without_a_row_or_with_a_shared_id_is_refused_at_registration():
    """Registration runs at import: the error names the class, before any frame."""

    @dataclasses.dataclass(frozen=True)
    class Orphan:
        value: int

    @dataclasses.dataclass(frozen=True)
    class Twin:
        value: int

    with pytest.raises(ValueError, match=r"Orphan has no row in the type-id table"):
        MessageRegistry({}).register(Orphan, {"value": UintCodec()})
    with pytest.raises(ValueError, match=r"Orphan shares type id 3 with .*Twin"):
        MessageRegistry({row(Orphan): 3, row(Twin): 3}).register(
            Orphan, {"value": UintCodec()})
    # The process-wide registry refuses the same way, through the decorator.
    with pytest.raises(ValueError, match=r"Orphan has no row"):
        register_message(value=UintCodec())(Orphan)
    assert Orphan not in WIRE.types()


def test_batch_encoding_nests_registered_messages():
    batch = MessageBatch(messages=(Heartbeat(sender=1, sequence=2),
                                   Heartbeat(sender=3, sequence=4)))
    encoded = WIRE.encode(batch)
    decoded = WIRE.decode_one(encoded)
    assert decoded == batch
    # The envelope costs bytes beyond its payload.
    inner_total = sum(WIRE.wire_size(inner) for inner in batch.messages)
    assert WIRE.wire_size(batch) > inner_total


def test_unregistered_type_is_rejected():
    class NotWire:
        pass

    with pytest.raises(KeyError):
        WIRE.encode(NotWire())


# ------------------------------------------------------- compiled-codec contract

def test_importing_the_package_compiles_no_codec():
    """Compilation is lazy: import compiles nothing, one encode compiles one type.

    Generated modules are registered with ``linecache`` under ``<wire codec
    NAME>``, which is also how this test counts them.
    """
    script = (
        "import importlib, linecache\n"
        "from repro.runtime.registry import TYPE_IDS, WIRE\n"
        "for name in TYPE_IDS: importlib.import_module(name.rpartition('.')[0])\n"
        "from repro.sim.failures import Heartbeat\n"
        "compiled = lambda: sorted(k for k in linecache.cache if k.startswith('<wire codec'))\n"
        "assert len(WIRE.types()) == len(TYPE_IDS)\n"
        "print(compiled())\n"
        "WIRE.decode_one(WIRE.encode(Heartbeat(sender=1, sequence=2)))\n"
        "print(compiled())\n")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.splitlines() == ["[]", "['<wire codec Heartbeat>']"]


def test_traceback_from_generated_code_shows_the_generated_line():
    with pytest.raises(AttributeError) as caught:
        WIRE.encode(StatsReply(sender=1, payload=12345))   # payload must be a str
    frame = traceback.extract_tb(caught.value.__traceback__)[-1]
    assert frame.filename == "<wire codec StatsReply>"
    assert "payload" in frame.line and frame.line.endswith(".encode('utf-8')")
    assert frame.line in "".join(traceback.format_exception(caught.value))


def test_codec_defining_only_encode_and_decode_works_inside_a_message():
    """A third-party codec without emitters is called as an opaque field codec."""

    class FixedWidth(Codec):
        def encode(self, value, out):
            out += value.to_bytes(4, "big")

        def decode(self, data, offset):
            return int.from_bytes(data[offset:offset + 4], "big"), offset + 4

    @dataclasses.dataclass(frozen=True)
    class Reading:
        sensor: int
        samples: tuple

    registry = MessageRegistry({row(Reading): 0})
    registry.register(Reading, {"sensor": UintCodec(), "samples": SeqCodec(FixedWidth())})
    reading = Reading(sensor=300, samples=(1, 2**31, 7))
    encoded = registry.encode(reading)
    assert encoded == b"\x00\xac\x02\x03" + b"".join(s.to_bytes(4, "big") for s in reading.samples)
    assert registry.decode_one(encoded) == reading

    class Nothing(Codec):
        pass

    with pytest.raises(NotImplementedError):
        Nothing().encode(1, bytearray())


def test_varints_stop_at_ten_bytes_in_both_directions():
    out = bytearray()
    encode_uvarint(2**70 - 1, out)
    assert len(out) == 10 and decode_uvarint(bytes(out), 0) == (2**70 - 1, 10)
    with pytest.raises(ValueError):
        encode_uvarint(2**70, bytearray())
    with pytest.raises(ValueError):
        encode_uvarint(-1, bytearray())
    with pytest.raises(ValueError):
        decode_uvarint(b"\xff" * 10 + b"\x01", 0)
