"""Wire messages exchanged by CAESAR replicas.

Each message carries the command (or its id), the ballot identifying the
current leader for that command, and phase-specific payload.  Predecessor
sets travel as frozensets of command ids, never as command bodies: the paper
notes that only ids need to be exchanged because every node eventually
receives every command via its own PROPOSE/STABLE messages.

Every message type is registered with the runtime's message registry
(:mod:`repro.runtime.registry`), which supplies the exact-type dispatch used
by the kernel and the byte-accurate codec behind the footprint benchmarks.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.timestamps import LogicalTimestamp
from repro.runtime.codec import BOOL, UINT, OptionalCodec, SeqCodec, value_type
from repro.runtime.fields import (
    BALLOT,
    COMMAND,
    COMMAND_ID,
    COMMAND_ID_SET,
    OPTIONAL_BALLOT,
    OPTIONAL_STRING,
    OPTIONAL_TIMESTAMP,
    TIMESTAMP,
)
from repro.runtime.registry import register_message


@register_message(command=COMMAND, ballot=BALLOT, timestamp=TIMESTAMP,
                  whitelist=OptionalCodec(COMMAND_ID_SET))
@value_type
class FastPropose:
    """Leader -> all: propose ``command`` at ``timestamp`` (fast proposal phase)."""

    command: Command
    ballot: Ballot
    timestamp: LogicalTimestamp
    whitelist: Optional[FrozenSet[CommandId]] = None


@register_message(command_id=COMMAND_ID, ballot=BALLOT, timestamp=TIMESTAMP,
                  predecessors=COMMAND_ID_SET, ok=BOOL)
@value_type
class FastProposeReply:
    """Acceptor -> leader: confirm (``ok=True``) or reject the fast proposal.

    On rejection ``timestamp`` is the acceptor's suggested greater timestamp.
    ``predecessors`` always reflects the acceptor's view of commands that must
    precede the command.
    """

    command_id: CommandId
    ballot: Ballot
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]
    ok: bool


@register_message(command=COMMAND, ballot=BALLOT, timestamp=TIMESTAMP,
                  predecessors=COMMAND_ID_SET)
@value_type
class SlowPropose:
    """Leader -> all: proposal re-issued on a classic quorum after a fast-quorum timeout."""

    command: Command
    ballot: Ballot
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]


@register_message(command_id=COMMAND_ID, ballot=BALLOT, timestamp=TIMESTAMP,
                  predecessors=COMMAND_ID_SET, ok=BOOL)
@value_type
class SlowProposeReply:
    """Acceptor -> leader: confirm or reject a slow proposal."""

    command_id: CommandId
    ballot: Ballot
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]
    ok: bool


@register_message(command=COMMAND, ballot=BALLOT, timestamp=TIMESTAMP,
                  predecessors=COMMAND_ID_SET)
@value_type
class Retry:
    """Leader -> all: ask acceptance of the retried timestamp (never rejected)."""

    command: Command
    ballot: Ballot
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]


@register_message(command_id=COMMAND_ID, ballot=BALLOT, timestamp=TIMESTAMP,
                  predecessors=COMMAND_ID_SET)
@value_type
class RetryReply:
    """Acceptor -> leader: acknowledgement of a retry, with extra predecessors."""

    command_id: CommandId
    ballot: Ballot
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]


@register_message(command=COMMAND, ballot=BALLOT, timestamp=TIMESTAMP,
                  predecessors=COMMAND_ID_SET)
@value_type
class Stable:
    """Leader -> all: the command's final timestamp and predecessor set."""

    command: Command
    ballot: Ballot
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]


@register_message(command=COMMAND, ballot=BALLOT)
@value_type
class Recovery:
    """Recovering node -> all: Paxos-like prepare for a suspected command."""

    command: Command
    ballot: Ballot


@register_message(command_id=COMMAND_ID, ballot=BALLOT, known=BOOL,
                  entry_ballot=OPTIONAL_BALLOT, timestamp=OPTIONAL_TIMESTAMP,
                  predecessors=COMMAND_ID_SET, status=OPTIONAL_STRING, forced=BOOL)
@value_type
class RecoveryReply:
    """Acceptor -> recovering node: the acceptor's current tuple for the command.

    ``known`` is ``False`` when the acceptor has never seen the command (the
    NOP case in the paper's pseudocode); the remaining fields are then
    meaningless.
    """

    command_id: CommandId
    ballot: Ballot
    known: bool
    entry_ballot: Optional[Ballot] = None
    timestamp: Optional[LogicalTimestamp] = None
    predecessors: FrozenSet[CommandId] = frozenset()
    status: Optional[str] = None
    forced: bool = False


@register_message(position=UINT, ids=SeqCodec(COMMAND_ID), received=UINT)
@value_type
class Delivered:
    """Replica -> peer: the ids the sender delivered, for history collection.

    ``ids`` are the sender's delivery order from index ``position`` on (a
    bounded slice of it); ``received`` acknowledges the other direction: how
    many of the receiver's delivered ids the sender has counted so far.
    """

    position: int
    ids: Tuple[CommandId, ...]
    received: int
