"""Differential test: the compiled wire codec vs the wire format's rules.

:class:`~repro.runtime.registry.MessageRegistry` compiles each message type's
field codecs into one flat function per direction.  ``tests/spec_wire.py``
states, one rule per codec kind, what the bytes must be; for every registered
message type Hypothesis draws messages and requires the compiled bytes to
equal the spec's bytes, and both decoders to give back the message and the
same end offset, from either side's bytes.

The pinned examples sit on the boundaries where generated code and the rules
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
from repro.net.wire import REGISTRY_DIGEST, Hello
from repro.runtime.batching import MessageBatch
from repro.runtime.codec import UINT, compile_codec, decode_uvarint, encode_uvarint
from repro.runtime.fields import COMMAND_ID_SET
from repro.runtime.registry import TYPE_IDS, WIRE, MessageCodec
from repro.sim.failures import Heartbeat
from tests import spec_wire
from tests.test_runtime_codec import all_wire_types, message_strategy

ALL_TYPES = all_wire_types()
MESSAGE = MessageCodec()
#: The pair ``compile_codec`` gives a bare varint codec, with no prefix.
UINT_ENCODE, UINT_DECODE = compile_codec(UINT, "UINT", b"")


def assert_same_wire(message) -> None:
    """The compiled codec and the spec agree on ``message`` in both directions."""
    compiled_bytes = WIRE.encode(message)
    spec_bytes = spec_wire.encode(MESSAGE, message)
    assert compiled_bytes == spec_bytes
    # Same end offset too: a decoder that over- or under-reads by a byte and
    # still builds an equal message would corrupt the next message of a batch.
    for data in (compiled_bytes, spec_bytes):
        assert WIRE.decode(data) == spec_wire.decode(MESSAGE, data, 0) == (message, len(data))


@pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_registered_type_matches_the_wire_spec(cls, data):
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
# the handshake, with the digest the table gives and without one an old peer sends.
@example(Hello(sender=1, role=0))
@example(Hello(sender=3, role=1, digest=0))
@example(MessageBatch(messages=(
    MessageBatch(messages=(Heartbeat(sender=1, sequence=128), stable(predecessors=[(1, 1)]))),
    MessageBatch(messages=()),
    Heartbeat(sender=2, sequence=3))))
def test_boundary_messages_match_the_wire_spec(message):
    assert_same_wire(message)


@settings(max_examples=60, deadline=None)
@given(ids=st.frozensets(_IDS, max_size=150))
def test_a_standalone_codec_compiles_the_same_layout(ids):
    """``compile_codec`` on a codec outside any message: same emitters, same bytes."""
    encode, decode = compile_codec(COMMAND_ID_SET, "COMMAND_ID_SET", b"\xaa")
    compiled = encode(ids)
    assert compiled == b"\xaa" + spec_wire.encode(COMMAND_ID_SET, ids)
    assert decode(compiled, 1) == (ids, len(compiled))


@pytest.mark.parametrize("value", [0, 127, 128, 16383, 16384, 2**70 - 1])
def test_inline_varints_are_the_function_s_bytes_on_every_width_boundary(value):
    """One and two bytes are written and read inline by generated code; from
    three up it calls ``encode_uvarint`` / ``decode_uvarint``."""
    compiled, function_out = UINT_ENCODE(value), bytearray()
    encode_uvarint(value, function_out)
    assert compiled == function_out == spec_wire.encode(UINT, value)
    assert UINT_DECODE(compiled + b"\x7f", 0) == (value, len(compiled))


@pytest.mark.parametrize("data", [
    b"\x80\x00",          # zero, padded to two bytes
    b"\xff\x00",          # 127, padded
    b"\x80\x80\x00",      # zero, padded to three: the inline read falls through
    b"\x81\x80\x80\x01",
], ids=lambda data: data.hex())
def test_a_non_canonical_varint_decodes_exactly_as_the_function_does(data):
    assert UINT_DECODE(data, 0) == decode_uvarint(data, 0) == spec_wire.decode(UINT, data, 0)


@pytest.mark.parametrize("data", [b"\x80", b"\xff\xff", b"\xff" * 11],
                         ids=lambda data: data.hex()[:8])
def test_a_varint_that_ends_early_or_never_raises_what_the_function_raises(data):
    with pytest.raises((IndexError, ValueError)) as inline:
        UINT_DECODE(data, 0)
    with pytest.raises(inline.type):
        decode_uvarint(data, 0)


def test_hello_carries_the_digest_of_the_type_id_table():
    """Two processes whose tables differ would misread each other's frames: the
    digest the rules give the table is what every ``Hello`` announces, and a
    table with one row moved has another."""
    assert Hello(sender=1, role=0).digest == REGISTRY_DIGEST == spec_wire.registry_digest(TYPE_IDS)
    moved = dict(TYPE_IDS, **{"repro.core.messages.Delivered": len(TYPE_IDS)})
    assert spec_wire.registry_digest(moved) != REGISTRY_DIGEST
