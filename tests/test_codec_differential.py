"""Differential test: the compiled wire codec vs the interpreted tree it replaced.

:class:`~repro.runtime.registry.MessageRegistry` compiles each message type's
field codecs into one flat function per direction.  That is only an
optimisation if *not one byte* changes: the interpreted codec of the parent
commit lives on in ``tests/interpreted_codec.py`` (a fixture, not package
code), and for every registered message type Hypothesis draws messages and
requires the compiled bytes to equal the interpreted bytes, and both decoders
to give back the message — from either side's bytes.

The pinned examples sit on the boundaries where generated code and the tree
could plausibly part ways: the one-byte / multi-byte varint edge that the
generated code inlines, zigzag around zero, a string whose *byte* length
needs two length bytes, sets large enough for a two-byte count (where
dropping ``sorted`` shows), both arms of every optional, and batches nested
in batches (the one place generated code calls back into the registry).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.messages import FastPropose, FastProposeReply, Stable
from repro.runtime.batching import MessageBatch
from repro.runtime.codec import UINT, decode_uvarint, encode_uvarint
from repro.runtime.fields import COMMAND_ID_SET
from repro.runtime.registry import WIRE
from repro.sim.failures import Heartbeat
from tests.interpreted_codec import InterpretedRegistry, interpreted, interpreted_registry
from tests.test_runtime_codec import all_wire_types, message_strategy

ALL_TYPES = all_wire_types()
INTERPRETED = interpreted_registry(WIRE)


def assert_same_wire(message) -> None:
    """Compiled and interpreted codecs agree on ``message`` in both directions."""
    compiled_bytes = WIRE.encode(message)
    assert compiled_bytes == INTERPRETED.encode(message)
    assert WIRE.decode_one(compiled_bytes) == message
    assert INTERPRETED.decode_one(compiled_bytes) == message
    # Same end offset too: a decoder that over- or under-reads by a byte and
    # still builds an equal message would corrupt the next message of a batch.
    assert WIRE.decode(compiled_bytes) == INTERPRETED.decode(compiled_bytes)


@pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_registered_type_matches_the_interpreted_codec(cls, data):
    assert_same_wire(data.draw(message_strategy(cls)))


def command(command_id=(1, 2), key="key-7", value="v", origin=0, payload_size=0) -> Command:
    return Command(command_id=command_id, key=key, operation="put", value=value,
                   origin=origin, payload_size=payload_size)


def stable(predecessors=frozenset(), **command_fields) -> Stable:
    return Stable(command=command(**command_fields), ballot=Ballot(3, 1),
                  timestamp=LogicalTimestamp(300, 2), predecessors=frozenset(predecessors))


#: Ids on both sides of zero and of every zigzag byte boundary; unsorted on purpose.
_IDS = st.tuples(st.integers(-70, 70), st.integers(-2**20, 2**20))

#: The hot message with predecessor sets past the one-byte count (the default
#: strategy stops at four elements).
_STABLE = st.builds(stable, predecessors=st.frozensets(_IDS, max_size=300))


@settings(max_examples=60, deadline=None)
@given(message=_STABLE)
# uvarint: last one-byte value, first two-byte, last two-byte (the widest the
# generated code writes inline), first three-byte, wide, widest.
@example(Heartbeat(sender=127, sequence=128))
@example(Heartbeat(sender=16383, sequence=16384))
@example(Heartbeat(sender=0, sequence=2**48))
@example(Heartbeat(sender=2**70 - 1, sequence=127))
@example(stable(payload_size=128))
# sint: zigzag maps -64 -> 127 (one byte) and -65 -> 129, 63 -> 126 and 64 -> 128.
@example(stable(command_id=(-1, -64)))
@example(stable(command_id=(-65, 63), origin=64))
@example(stable(command_id=(64, -2**48), origin=-1))
# strings: 128 bytes needs a two-byte length; so do 64 two-byte characters.
@example(stable(key="k" * 128))
@example(stable(key="k" * 127, value="é" * 64))
@example(stable(value=""))
# sets: empty, and 200 elements inserted in descending order.
@example(stable(predecessors=()))
@example(stable(predecessors=[(200 - i, i - 100) for i in range(200)]))
@example(FastProposeReply(command_id=(5, 6), ballot=Ballot(0, 0),
                          timestamp=LogicalTimestamp(128, 4),
                          predecessors=frozenset({(2, 1), (1, 2), (-1, 3)}), ok=False))
# optionals: absent and present, scalar and structured.
@example(stable(value=None))
@example(FastPropose(command=command(), ballot=Ballot(0, 1),
                     timestamp=LogicalTimestamp(1, 1), whitelist=None))
@example(FastPropose(command=command(value=None), ballot=Ballot(0, 1),
                     timestamp=LogicalTimestamp(1, 1), whitelist=frozenset()))
@example(FastPropose(command=command(), ballot=Ballot(0, 1),
                     timestamp=LogicalTimestamp(1, 1),
                     whitelist=frozenset({(9, 9), (-9, 200)})))
# batches: empty, and a batch of batches.
@example(MessageBatch(messages=()))
@example(MessageBatch(messages=(
    MessageBatch(messages=(Heartbeat(sender=1, sequence=128), stable(predecessors=[(1, 1)]))),
    MessageBatch(messages=()),
    Heartbeat(sender=2, sequence=3))))
def test_boundary_messages_match_the_interpreted_codec(message):
    assert_same_wire(message)


@settings(max_examples=60, deadline=None)
@given(ids=st.frozensets(_IDS, max_size=150))
def test_a_standalone_codec_compiles_the_same_layout(ids):
    """``Codec.encode`` / ``.decode`` outside any message: same emitters, same bytes."""
    reference = interpreted(COMMAND_ID_SET, InterpretedRegistry())
    compiled_out, reference_out = bytearray(b"\xaa"), bytearray(b"\xaa")
    COMMAND_ID_SET.encode(ids, compiled_out)
    reference.encode(ids, reference_out)
    assert compiled_out == reference_out
    assert COMMAND_ID_SET.decode(bytes(compiled_out), 1) == (ids, len(compiled_out))


@pytest.mark.parametrize("value", [0, 127, 128, 16383, 16384, 2**70 - 1])
def test_inline_varints_are_the_function_s_bytes_on_every_width_boundary(value):
    """One and two bytes are written and read inline by generated code; from
    three up it calls ``encode_uvarint`` / ``decode_uvarint``."""
    compiled_out, function_out, reference_out = bytearray(), bytearray(), bytearray()
    UINT.encode(value, compiled_out)
    encode_uvarint(value, function_out)
    interpreted(UINT, InterpretedRegistry()).encode(value, reference_out)
    assert compiled_out == function_out == reference_out
    assert UINT.decode(bytes(compiled_out) + b"\x7f", 0) == (value, len(compiled_out))


@pytest.mark.parametrize("data", [
    b"\x80\x00",          # zero, padded to two bytes
    b"\xff\x00",          # 127, padded
    b"\x80\x80\x00",      # zero, padded to three: the inline read falls through
    b"\x81\x80\x80\x01",
], ids=lambda data: data.hex())
def test_a_non_canonical_varint_decodes_exactly_as_the_function_does(data):
    assert UINT.decode(data, 0) == decode_uvarint(data, 0) \
        == interpreted(UINT, InterpretedRegistry()).decode(data, 0)


@pytest.mark.parametrize("data", [b"\x80", b"\xff\xff", b"\xff" * 11],
                         ids=lambda data: data.hex()[:8])
def test_a_varint_that_ends_early_or_never_raises_what_the_function_raises(data):
    with pytest.raises((IndexError, ValueError)) as inline:
        UINT.decode(data, 0)
    with pytest.raises(inline.type):
        decode_uvarint(data, 0)
