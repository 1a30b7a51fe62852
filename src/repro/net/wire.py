"""Wire-level envelope messages for the TCP deployment mode.

Every frame on a socket carries one *registered* message — protocol messages
reuse their existing registrations (the canonical codec from
:mod:`repro.runtime.registry` IS the wire format), and this module registers
the handful of envelope types the socket world additionally needs:

* :class:`Hello` — the mandatory first frame on every connection, naming the
  sender and its role, so the receiving replica knows whether subsequent
  frames are peer protocol traffic (dispatched into the kernel with the
  peer's id as ``src``) or client requests;
* :class:`ClientRequest` / :class:`ClientReply` — a client command and its
  result, reusing the shared :data:`~repro.runtime.fields.COMMAND` codec so
  a TCP client submits byte-for-byte the same command the simulator's
  in-process clients submit;
* :class:`StatsRequest` / :class:`StatsReply` — the stats-export control
  round: a reply carries the replica's JSON-encoded
  :class:`~repro.runtime.stats.ProtocolStats` + substrate counters, shaped
  exactly like the simulator harness reports them.

Because these are ordinary registered messages, the Hypothesis round-trip
suite covers them automatically and their byte footprints show up in the
same accounting as every protocol message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.consensus.command import Command
from repro.runtime.codec import STRING, UINT, OptionalCodec
from repro.runtime.fields import COMMAND, COMMAND_ID
from repro.runtime.registry import register_message

#: Connection roles announced in :class:`Hello`.
ROLE_REPLICA = 0
ROLE_CLIENT = 1
ROLE_CONTROL = 2

ROLE_NAMES = {ROLE_REPLICA: "replica", ROLE_CLIENT: "client",
              ROLE_CONTROL: "control"}


@register_message(sender=UINT, role=UINT)
@dataclass(frozen=True, slots=True)
class Hello:
    """Mandatory first frame on every connection: who is calling, and why.

    ``sender`` is the peer's replica id for :data:`ROLE_REPLICA` connections
    and a client/control id otherwise (ids are per-role namespaces; only
    replica ids are routed).
    """

    sender: int
    role: int


@register_message(command=COMMAND)
@dataclass(frozen=True, slots=True)
class ClientRequest:
    """A client command submitted to the receiving replica for ordering."""

    command: Command


@register_message(command_id=COMMAND_ID, value=OptionalCodec(STRING), rejected=UINT)
@dataclass(frozen=True, slots=True)
class ClientReply:
    """The executed command's result, sent on the submitting connection.

    ``rejected`` (0/1) marks replies produced by the replica's admission
    policy shedding the command instead of ordering it.
    """

    command_id: Tuple[int, int]
    value: Optional[str] = None
    rejected: int = 0


@register_message(sender=UINT, include_executed=UINT)
@dataclass(frozen=True, slots=True)
class StatsRequest:
    """Ask a replica for its statistics snapshot.

    ``include_executed`` (0/1) additionally requests the full executed
    command-id list — used by the loopback oracle tests and the loadgen
    full-replication check; large, so off by default.
    """

    sender: int
    include_executed: int = 0


@register_message(sender=UINT, payload=STRING)
@dataclass(frozen=True, slots=True)
class StatsReply:
    """JSON-encoded statistics snapshot (see ``ReplicaServer.stats_payload``)."""

    sender: int
    payload: str
