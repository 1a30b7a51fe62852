"""Wire-level envelope messages for the TCP deployment mode.

Every frame on a socket carries one *registered* message — protocol messages
reuse their existing registrations (the canonical codec from
:mod:`repro.runtime.registry` IS the wire format), and this module registers
the handful of envelope types the socket world additionally needs:

* :class:`Hello` — the mandatory first frame on every connection, naming the
  sender and its role, so the receiving replica knows whether subsequent
  frames are peer protocol traffic (dispatched into the kernel with the
  peer's id as ``src``) or client requests, and carrying the digest of the
  sender's wire type table, so two processes that would misread each
  other's frames never get past it;
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

import zlib
from typing import Optional, Tuple

from repro.consensus.command import Command
from repro.runtime.codec import STRING, UINT, OptionalCodec, value_type
from repro.runtime.fields import COMMAND, COMMAND_ID
from repro.runtime.registry import TYPE_IDS, register_message

#: Connection roles announced in :class:`Hello`.
ROLE_REPLICA = 0
ROLE_CLIENT = 1
ROLE_CONTROL = 2

ROLE_NAMES = {ROLE_REPLICA: "replica", ROLE_CLIENT: "client",
              ROLE_CONTROL: "control"}


#: CRC-32 of the wire type table (:data:`repro.runtime.registry.TYPE_IDS`) as
#: UTF-8 text, one ``"<module.qualname> <id>\n"`` line per row in id order.
REGISTRY_DIGEST = zlib.crc32("".join(
    f"{name} {type_id}\n" for name, type_id in TYPE_IDS.items()).encode())


@register_message(sender=UINT, role=UINT, digest=UINT)
@value_type
class Hello:
    """Mandatory first frame on every connection: who is calling, and why.

    ``sender`` is the peer's replica id for :data:`ROLE_REPLICA` connections
    and a client/control id otherwise (ids are per-role namespaces; only
    replica ids are routed).  ``digest`` is the sender's
    :data:`REGISTRY_DIGEST`; a replica refuses a connection whose digest is
    not its own.
    """

    sender: int
    role: int
    digest: int = REGISTRY_DIGEST


@register_message(command=COMMAND)
@value_type
class ClientRequest:
    """A client command submitted to the receiving replica for ordering."""

    command: Command


@register_message(command_id=COMMAND_ID, value=OptionalCodec(STRING), rejected=UINT)
@value_type
class ClientReply:
    """The executed command's result, sent on the submitting connection.

    ``rejected`` is the result's: 0, or why the replica did not order the
    command (``consensus.command.SHED`` by its admission policy,
    ``ALREADY_EXECUTED`` for an id it had executed before, ``IN_FLIGHT`` for
    an id it was still ordering).
    """

    command_id: Tuple[int, int]
    value: Optional[str] = None
    rejected: int = 0


@register_message(sender=UINT)
@value_type
class StatsRequest:
    """Ask a replica for its statistics snapshot."""

    sender: int


@register_message(sender=UINT, payload=STRING)
@value_type
class StatsReply:
    """JSON-encoded statistics snapshot (see ``ReplicaServer.stats_payload``)."""

    sender: int
    payload: str
