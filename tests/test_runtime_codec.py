"""Property tests for the runtime message registry and codec.

Two invariants hold for *every* registered wire-message type (the strategies
are derived from the registered field codecs, so newly registered messages
are covered automatically):

* encode -> decode is the identity;
* the encoding is canonical — re-encoding the same value yields the same
  bytes, so codec-measured wire sizes are stable.
"""

from __future__ import annotations

import cProfile
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
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.messages import FastPropose, FastProposeReply, Stable
from repro.net.wire import StatsReply
from repro.runtime.batching import MessageBatch
from repro.runtime.codec import (
    BoolCodec,
    Codec,
    FrozenSetCodec,
    OptionalCodec,
    SeqCodec,
    SintCodec,
    SortedSeqCodec,
    StrCodec,
    StructCodec,
    TupleCodec,
    UintCodec,
    compile_codec,
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
    if isinstance(codec, SortedSeqCodec):
        return st.frozensets(strategy_for(codec.element), max_size=4).map(sorted).map(tuple)
    if isinstance(codec, StructCodec):
        return st.builds(codec.cls,
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
    types = []
    for name, _ in sorted(TYPE_IDS.items(), key=lambda row: row[1]):
        module, _, qualname = name.rpartition(".")
        types.append(getattr(importlib.import_module(module), qualname))
    return types


def message_strategy(cls) -> st.SearchStrategy:
    """Strategy over fully populated instances of a registered message type."""
    return st.builds(cls, **{name: strategy_for(codec)
                             for name, codec in WIRE._codecs[cls].fields})


@pytest.mark.parametrize("cls", all_wire_types(), ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_encode_decode_roundtrip_and_stable_size(cls, data):
    message = data.draw(message_strategy(cls))
    encoded = WIRE.encode(message)
    assert WIRE.decode_one(encoded) == message
    # Canonical: the same value always produces the same bytes (and size).
    assert WIRE.encode(message) == encoded
    assert len(WIRE.encode(message)) == len(encoded)


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
    Delivered
""".split()


def test_every_row_of_the_type_id_table_is_registered_under_its_id():
    """The table is the golden file: 43 ids, 0 ``MessageBatch`` … 42 ``Delivered``."""
    assert list(TYPE_IDS.values()) == list(range(43))
    # The registry holds each class under the id its row gives.
    assert [WIRE._by_id[type_id] for type_id in range(43)] == all_wire_types()
    assert [name.rpartition(".")[2] for name in TYPE_IDS] == WIRE_NAMES_BY_ID
    assert WIRE.encode(MessageBatch(messages=()))[0] == 0
    assert WIRE.encode(StatsReply(sender=1, payload=""))[0] == 41


def test_a_class_without_a_row_or_with_a_shared_id_is_refused_at_registration():
    """Registration runs at import: the error names the class, before any frame."""

    @dataclasses.dataclass(frozen=True, slots=True)
    class Orphan:
        value: int

    @dataclasses.dataclass(frozen=True, slots=True)
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
    assert Orphan not in WIRE._codecs


# ------------------------------------------------ decoded values without __init__

def structs_in(value, codec):
    """``(value, class)`` for every struct ``value`` holds under ``codec``."""
    if isinstance(codec, StructCodec):
        yield value, codec.cls
        for name, field in codec.fields:
            yield from structs_in(getattr(value, name), field)
    elif isinstance(codec, OptionalCodec) and value is not None:
        yield from structs_in(value, codec.inner)


def structs_of(message):
    """``(value, class)`` for ``message`` and every struct nested in its fields."""
    yield message, type(message)
    for name, codec in WIRE._codecs[type(message)].fields:
        yield from structs_in(getattr(message, name), codec)


@pytest.mark.parametrize("cls", all_wire_types(), ids=lambda cls: cls.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_decoded_message_is_the_value_its_constructor_builds(cls, data):
    """Decoding skips ``__init__`` (``object.__new__`` plus the slot setters),
    so the result is checked against the constructor-built message: equal,
    the same hash, still frozen and of exactly the class — and so is every
    command, ballot and timestamp inside it."""
    built = data.draw(message_strategy(cls))
    decoded = WIRE.decode_one(WIRE.encode(built))
    for (value, kind), (original, _) in zip(structs_of(decoded), structs_of(built),
                                            strict=True):
        assert type(value) is kind
        assert value == original and hash(value) == hash(original)
        name = dataclasses.fields(kind)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_registration_refuses_a_class_decoding_could_not_build_without_init():
    """Only a frozen dataclass whose fields are all slots and which has no
    ``__post_init__`` is the same object with or without its ``__init__``."""

    class Plain:
        value: int

    @dataclasses.dataclass(slots=True)
    class Mutable:
        value: int

    @dataclasses.dataclass(frozen=True)
    class Unslotted:
        value: int

    @dataclasses.dataclass(frozen=True, slots=True)
    class Checked:
        value: int

        def __post_init__(self):
            if self.value < 0:
                raise ValueError("negative")

    for cls, reason in ((Plain, "not a frozen dataclass"),
                        (Mutable, "not a frozen dataclass"),
                        (Unslotted, "is not a slot"),
                        (Checked, "__post_init__")):
        with pytest.raises(TypeError, match=reason):
            MessageRegistry({row(cls): 0}).register(cls, {"value": UintCodec()})
        with pytest.raises(TypeError, match=reason):
            StructCodec(cls, [("value", UintCodec())])


def decode_calls(payload: bytes):
    """``(all, Python-level)`` calls cProfile sees in one ``decode_one``."""
    WIRE.decode_one(payload)  # compiled and warm
    profile = cProfile.Profile()
    profile.enable()
    WIRE.decode_one(payload)
    profile.disable()
    entries = [entry for entry in profile.getstats()
               if "_lsprof.Profiler" not in str(entry.code)]
    return (sum(entry.callcount for entry in entries),
            sum(entry.callcount for entry in entries if not isinstance(entry.code, str)))


def test_decoding_a_fixed_frame_makes_a_pinned_number_of_calls():
    """A decode is one generated function plus the builtins it calls.

    Counted with cProfile, which sees Python functions and builtin functions
    but not slot wrappers (``object.__setattr__``, a descriptor's
    ``__set__``).  At the parent each struct cost one Python-level frozen
    ``__init__``; now it costs one builtin ``object.__new__``, so the totals
    stay 28 / 12 / 24 (``Stable`` / ``FastPropose`` / ``FastProposeReply``,
    16 predecessors) while the Python-level calls fell from 7 / 7 / 6 to
    3 / 3 / 3.  The limits are today's counts plus 3 %.
    """
    command = Command(command_id=(3, 41), key="k7", operation="put", value="v", origin=1)
    predecessors = frozenset((client, sequence) for client in range(4) for sequence in range(4))
    frames = {
        Stable: Stable(command=command, ballot=Ballot(0, 1),
                       timestamp=LogicalTimestamp(12, 1), predecessors=predecessors),
        FastPropose: FastPropose(command=command, ballot=Ballot(0, 1),
                                 timestamp=LogicalTimestamp(12, 1)),
        FastProposeReply: FastProposeReply(
            command_id=command.command_id, ballot=Ballot(0, 1),
            timestamp=LogicalTimestamp(13, 2), predecessors=predecessors, ok=True),
    }
    limits = {Stable: (28, 3), FastPropose: (12, 3), FastProposeReply: (24, 3)}
    for cls, message in frames.items():
        total, python = decode_calls(WIRE.encode(message))
        limit_total, limit_python = limits[cls]
        assert total <= int(limit_total * 1.03), (cls.__name__, total)
        assert python <= int(limit_python * 1.03), (cls.__name__, python)


def test_batch_encoding_nests_registered_messages():
    batch = MessageBatch(messages=(Heartbeat(sender=1, sequence=2),
                                   Heartbeat(sender=3, sequence=4)))
    encoded = WIRE.encode(batch)
    decoded = WIRE.decode_one(encoded)
    assert decoded == batch
    # The envelope costs bytes beyond its payload.
    inner_total = sum(len(WIRE.encode(inner)) for inner in batch.messages)
    assert len(WIRE.encode(batch)) > inner_total


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
        "assert len(WIRE._by_id) == len(TYPE_IDS)\n"
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


def test_a_codec_without_emitters_is_refused_when_compiled():
    """Every codec emits its layout; one that defines no emitters cannot compile."""

    class Nothing(Codec):
        pass

    with pytest.raises(NotImplementedError, match="emit_encode"):
        compile_codec(Nothing(), "Nothing", b"")

    class EncodeOnly(Codec):
        def emit_encode(self, gen, value):
            gen.line(f"ap({value})")

    with pytest.raises(NotImplementedError, match="emit_decode"):
        compile_codec(EncodeOnly(), "EncodeOnly", b"")


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
