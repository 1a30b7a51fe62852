"""Shared field codecs for the consensus value types.

These are the composite codecs protocol modules use when registering their
wire messages: commands, ballots, logical timestamps and the id collections
built from them.  Defining them once keeps every protocol's wire layout for
the shared types identical, which is what makes cross-protocol byte
footprints comparable.
"""

from __future__ import annotations

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.runtime.codec import (
    BOOL,
    ID_PAIR,
    SINT,
    STRING,
    UINT,
    FrozenSetCodec,
    OptionalCodec,
    SortedSeqCodec,
    StructCodec,
)

#: ``(client_id, sequence)`` command ids / ``(replica, instance)`` instance ids.
COMMAND_ID = ID_PAIR
INSTANCE_ID = ID_PAIR

#: Sets of ids, canonically sorted on the wire.  An instance id set is held as
#: the strictly ascending tuple it travels as: the same bytes, no sort.
COMMAND_ID_SET = FrozenSetCodec(COMMAND_ID)
INSTANCE_ID_SEQ = SortedSeqCodec(INSTANCE_ID)

BALLOT = StructCodec(Ballot, [("round", UINT), ("node_id", UINT)])

TIMESTAMP = StructCodec(LogicalTimestamp, [("counter", UINT), ("node_id", UINT)])

COMMAND = StructCodec(Command, [
    ("command_id", COMMAND_ID),
    ("key", STRING),
    ("operation", STRING),
    ("value", OptionalCodec(STRING)),
    ("origin", SINT),
    ("payload_size", UINT),
])

OPTIONAL_COMMAND = OptionalCodec(COMMAND)
OPTIONAL_BALLOT = OptionalCodec(BALLOT)
OPTIONAL_TIMESTAMP = OptionalCodec(TIMESTAMP)
OPTIONAL_STRING = OptionalCodec(STRING)

__all__ = [
    "BALLOT",
    "BOOL",
    "COMMAND",
    "COMMAND_ID",
    "COMMAND_ID_SET",
    "INSTANCE_ID",
    "INSTANCE_ID_SEQ",
    "OPTIONAL_BALLOT",
    "OPTIONAL_COMMAND",
    "OPTIONAL_STRING",
    "OPTIONAL_TIMESTAMP",
    "SINT",
    "STRING",
    "TIMESTAMP",
    "UINT",
]
