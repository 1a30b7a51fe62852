"""Hostile payloads fail once, loudly and boundedly.

Whatever is wrong with the bytes — garbage, a truncated message, a byte too
many, an unknown type id, a varint that never ends, batches nested past the
recursion limit — :meth:`MessageRegistry.decode_one` answers with one
:class:`WireDecodeError`, and a replica that receives such a frame drops that
connection and keeps serving the others.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.epaxos import Commit, PreAccept
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.messages import Stable
from repro.net.client import RemoteReplica
from repro.net.framing import encode_frame
from repro.net.loopback import LoopbackCluster
from repro.net.wire import REGISTRY_DIGEST, ROLE_CLIENT, ROLE_REPLICA, Hello, StatsReply
from repro.runtime.batching import MessageBatch
from repro.runtime.registry import TYPE_IDS, WIRE, WireDecodeError
from repro.sim.failures import Heartbeat
from tests.hostile_replica import attack_then_commit
from tests.test_runtime_codec import all_wire_types, message_strategy

_ANY_MESSAGE = st.sampled_from(all_wire_types()).flatmap(message_strategy)


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(max_size=96))
def test_random_bytes_decode_or_raise_wire_decode_error(payload):
    try:
        message = WIRE.decode_one(payload)
    except WireDecodeError:
        return
    # The rare garbage that *is* a message re-encodes to an equal message.
    assert WIRE.decode_one(WIRE.encode(message)) == message


@settings(max_examples=150, deadline=None)
@given(message=_ANY_MESSAGE, extra=st.binary(min_size=1, max_size=3))
def test_prefixes_and_trailing_bytes_are_rejected(message, extra):
    encoded = WIRE.encode(message)
    for cut in range(len(encoded)):
        with pytest.raises(WireDecodeError):
            WIRE.decode_one(encoded[:cut])
    with pytest.raises(WireDecodeError):
        WIRE.decode_one(encoded + extra)
    assert WIRE.decode_one(encoded) == message


def test_wire_decode_error_is_a_value_error_naming_the_cause():
    assert issubclass(WireDecodeError, ValueError)
    with pytest.raises(WireDecodeError, match="unknown message type id 16383"):
        WIRE.decode_one(b"\xff\x7f")
    with pytest.raises(WireDecodeError, match="IndexError"):
        WIRE.decode_one(b"")
    with pytest.raises(WireDecodeError, match="UnicodeDecodeError"):
        WIRE.decode_one(WIRE.encode(StatsReply(sender=1, payload="ab")).replace(b"ab", b"\xff\xfe"))


def test_an_endless_varint_is_cut_off_not_accumulated():
    """A frame of 0xff bytes must not build a megabyte integer quadratically."""
    payload = WIRE.encode(Heartbeat(sender=0, sequence=0))[:1] + b"\xff" * (1 << 20)
    started = time.perf_counter()
    with pytest.raises(WireDecodeError, match="varint longer than 10 bytes"):
        WIRE.decode_one(payload)
    assert time.perf_counter() - started < 0.5


def test_batches_nested_past_the_recursion_limit_raise_wire_decode_error():
    one_level = WIRE.encode(MessageBatch(messages=(Heartbeat(sender=0, sequence=0),)))
    envelope = one_level[:-len(WIRE.encode(Heartbeat(sender=0, sequence=0)))]
    payload = envelope * (sys.getrecursionlimit() * 2) + WIRE.encode(Heartbeat(0, 0))
    with pytest.raises(WireDecodeError, match="RecursionError"):
        WIRE.decode_one(payload)


def _epaxos_commit(deps) -> bytes:
    """An EPaxos ``Commit`` payload carrying ``deps`` in the order given.

    The encoder refuses such a tuple, so the bytes are a well-formed commit's
    with its two dependencies' bytes rewritten in place."""
    command = Command(command_id=(93, 0), key="d", operation="put", value="v", origin=1)
    payload = WIRE.encode(Commit((1, 5), command, 2, ((1, 1), (2, 2))))
    listed = b"\x02" + b"".join(bytes((2 * leader, 2 * number)) for leader, number in deps)
    assert payload.count(b"\x02\x02\x02\x04\x04") == 1
    return payload.replace(b"\x02\x02\x02\x04\x04", listed)


#: Dependencies a ``Commit`` may not carry: out of order, and one id twice.
BAD_DEPS = {"out-of-order": ((2, 2), (1, 1)), "repeated": ((1, 1), (1, 1))}


@pytest.mark.parametrize("name", sorted(BAD_DEPS))
def test_an_epaxos_commit_with_disordered_dependencies_is_refused(name):
    """A dependency set travels strictly ascending, and the replica keeps the
    tuple it decodes: any other order is malformed, not re-sorted."""
    assert WIRE.decode_one(_epaxos_commit(((1, 1), (2, 2)))).deps == ((1, 1), (2, 2))
    with pytest.raises(WireDecodeError, match="not strictly ascending"):
        WIRE.decode_one(_epaxos_commit(BAD_DEPS[name]))
    command = Command(command_id=(93, 0), key="d", operation="put", value="v", origin=1)
    with pytest.raises(ValueError, match="not strictly ascending"):
        WIRE.encode(Commit((1, 5), command, 2, BAD_DEPS[name]))


def test_an_epaxos_replica_drops_a_link_that_sends_disordered_dependencies():
    hello = encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_REPLICA)))
    streams = {name: hello + encode_frame(_epaxos_commit(deps))
               for name, deps in BAD_DEPS.items()}
    outcome = asyncio.run(attack_then_commit(streams, protocol="epaxos"))
    assert outcome["received"] == dict.fromkeys(streams, b"")
    assert outcome["result"].command_id == (7, 0) and not outcome["result"].rejected
    assert outcome["executed"] == 1
    assert outcome["unhandled"] == []
    assert outcome["handshakes_refused"] == 0


# --------------------------------------------------------- against a live replica

def _stable(command_id, key: str, predecessors=(), node_id: int = 1) -> bytes:
    return encode_frame(WIRE.encode(Stable(
        command=Command(command_id=command_id, key=key, operation="put", value="v", origin=1),
        ballot=Ballot(0, 1), timestamp=LogicalTimestamp(3, node_id),
        predecessors=frozenset(predecessors))))


def _hostile_streams():
    hello = encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_REPLICA)))
    heartbeat = WIRE.encode(Heartbeat(sender=1, sequence=9))
    return {
        "garbage-first-frame": encode_frame(b"\xde\xad\xbe\xef" * 8),
        "garbage-after-hello": hello + encode_frame(b"\xff" * 64),
        "truncated-message": hello + encode_frame(heartbeat[:-1]),
        "trailing-byte": hello + encode_frame(heartbeat + b"\x00"),
        "empty-payload": hello + encode_frame(b""),
        "unknown-type-id": hello + encode_frame(b"\xff\x7f"),
        # Well-formed bytes in the wrong place end the same way.
        "oversized-frame": hello + b"\xff\xff\xff\xff",
        "replica-message-on-a-client-link":
            encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_CLIENT))) + encode_frame(heartbeat),
        # ``deliver_local`` tells a self-send from a peer's message by ``src``:
        # the handshake alone (no frame follows it) closes a replica link
        # that claims the attacked replica's own id, or an id outside the map.
        "replica-hello-claiming-the-local-id":
            encode_frame(WIRE.encode(Hello(sender=0, role=ROLE_REPLICA))),
        "replica-hello-from-outside-the-peer-map":
            encode_frame(WIRE.encode(Hello(sender=9, role=ROLE_REPLICA))),
        # A process whose wire type table differs would misread the frames
        # that follow: refused at the handshake, whatever its role, and so is
        # an older peer's hello, which has no digest at all.
        "replica-hello-with-another-registry":
            encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_REPLICA,
                                           digest=REGISTRY_DIGEST ^ 1))),
        "client-hello-with-another-registry":
            encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_CLIENT, digest=0))),
        "hello-without-a-digest":
            encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_REPLICA, digest=0))[:-1]),
        # Well-formed CAESAR messages that name command (91, 0) on key "a" (as
        # a predecessor) and then on key "b": the history refuses the second
        # with a ``KeyBindingError``, which closes the link like bad framing.
        "command-named-on-two-keys":
            hello + _stable((90, 0), "a", [(91, 0)]) + _stable((91, 0), "b"),
        # A timestamp node id a history sort key cannot hold in its 32 bits:
        # refused with a ``TimestampRangeError``, which closes the link too.
        "timestamp-node-id-past-32-bits":
            hello + _stable((92, 0), "c", node_id=1 << 32),
    }


def test_a_replica_survives_hostile_frames_and_still_commits():
    streams = _hostile_streams()
    outcome = asyncio.run(attack_then_commit(streams))
    # The replica closes each connection; it sends nothing back.
    assert outcome["received"] == dict.fromkeys(streams, b"")
    assert outcome["result"].command_id == (7, 0) and not outcome["result"].rejected
    assert outcome["executed"] == 1
    # No connection task died with "Task exception was never retrieved".
    assert outcome["unhandled"] == []
    # Every connection whose first frame was not this registry's Hello is
    # counted where the stats endpoint reports it.
    assert outcome["handshakes_refused"] == len(REFUSED_AT_THE_HANDSHAKE) == 6


#: The streams whose first frame the replica refuses.
REFUSED_AT_THE_HANDSHAKE = ("garbage-first-frame", "replica-hello-claiming-the-local-id",
                            "replica-hello-from-outside-the-peer-map",
                            "replica-hello-with-another-registry",
                            "client-hello-with-another-registry", "hello-without-a-digest")


def test_another_protocols_message_is_an_unknown_id_to_a_caesar_only_replica():
    """A replica process imports the protocol it runs and no other, so a
    well-formed EPaxos frame carries an id it has no class for: the frame is a
    ``WireDecodeError`` like any unknown id, and the module is *not* imported
    on the peer's behalf.  (In this process EPaxos is loaded, so the same
    bytes would decode; hence the fresh interpreter.)"""
    pre_accept = PreAccept(instance_id=(1, 0), command=Command(
        command_id=(1, 0), key="k", operation="put", value="v", origin=1),
        seq=1, deps=((2, 3),), ballot=Ballot(0, 1))
    payload = WIRE.encode(pre_accept)
    assert payload[0] == TYPE_IDS["repro.baselines.epaxos.PreAccept"] == 13
    streams = _hostile_streams()
    streams["another-protocols-message"] = (
        encode_frame(WIRE.encode(Hello(sender=1, role=ROLE_REPLICA))) + encode_frame(payload))
    child = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).with_name("hostile_replica.py"))],
        input=json.dumps({name: stream.hex() for name, stream in streams.items()}),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=60, check=True)
    outcome = json.loads(child.stdout)
    assert outcome["received"] == dict.fromkeys(streams, "")
    assert outcome["unhandled"] == []
    assert outcome["imported"] == [] and outcome["baselines_loaded"] == []
    assert (outcome["committed"], outcome["rejected"], outcome["executed"]) == ([7, 0], False, 1)


async def _client_reads(stream: bytes):
    """A fake replica that answers the client's Hello with ``stream``."""
    unhandled = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: unhandled.append(context))

    async def serve(reader, writer):
        await reader.read(1024)
        writer.write(stream)
        await writer.drain()
        await reader.read(1024)     # hold the socket open until the client leaves
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()
    remote = RemoteReplica(0, host, port, client_id=1)
    try:
        await remote.connect()
        for _ in range(200):
            if remote.crashed:
                break
            await asyncio.sleep(0.01)
        # The client itself hung up: the fake replica is still holding on.
        closed_by_client = remote._transport.is_closing()
    finally:
        await remote.close()
        server.close()
        await server.wait_closed()
    return remote, closed_by_client, unhandled


@pytest.mark.parametrize("stream", [
    encode_frame(b"\xff" * 32),
    encode_frame(WIRE.encode(Hello(sender=0, role=ROLE_CLIENT)) + b"\x01"),
    b"\xff\xff\xff\xff",    # a frame length past MAX_FRAME_BYTES
], ids=["garbage", "trailing-byte", "oversized-frame"])
def test_the_client_reader_marks_the_replica_crashed_on_a_bad_reply(stream):
    remote, closed_by_client, unhandled = asyncio.run(_client_reads(stream))
    assert remote.crashed
    assert closed_by_client
    # The bad reply ended the connection, not the callback that read it.
    assert unhandled == []


# ------------------------------------------------- a handler that raises inline

class _Boom(Exception):
    pass


async def _commit(remote: RemoteReplica, sequence: int):
    done = asyncio.get_running_loop().create_future()
    remote.submit(Command(command_id=(7, sequence), key="k", operation="put",
                          value=f"v{sequence}", origin=0), callback=done.set_result)
    return await asyncio.wait_for(done, timeout=15.0)


async def _handler_raises_once():
    loop = asyncio.get_running_loop()
    unhandled = []
    loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
    cluster = LoopbackCluster("caesar", replicas=3, seed=5)
    await cluster.start()
    try:
        victim = cluster.servers[1].replica
        handle_message = victim.handle_message

        def raise_once(src, message):
            if src != 0:
                return handle_message(src, message)
            victim.handle_message = handle_message
            raise _Boom(type(message).__name__)

        victim.handle_message = raise_once
        remote = RemoteReplica(0, *cluster.peers[0], client_id=7)
        await remote.connect()
        try:
            results = [await _commit(remote, 0), await _commit(remote, 1)]
        finally:
            await remote.close()
        for _ in range(500):
            if all(server.replica.commands_executed == 2
                   for server in cluster.servers.values()):
                break
            await asyncio.sleep(0.01)
        executed = [server.replica.commands_executed for server in cluster.servers.values()]
        connects = {(src, dst): server.replica.transport.connection(dst).connects
                    for src, server in cluster.servers.items()
                    for dst in cluster.peers if dst != src}
    finally:
        await cluster.stop()
    return results, executed, connects, unhandled


def test_a_handler_that_raises_inline_costs_one_connection_and_is_reported_once():
    """Inline dispatch runs the handler inside ``data_received``: asyncio
    reports what it raises to the loop's exception handler and drops that
    one connection; the sender re-dials, retransmission recovers the frames
    and the cluster commits the command in flight and the next one."""
    results, executed, connects, unhandled = asyncio.run(_handler_raises_once())
    assert [(r.command_id, r.rejected) for r in results] == [((7, 0), False), ((7, 1), False)]
    assert executed == [2, 2, 2]
    assert [type(context.get("exception")) for context in unhandled] == [_Boom]
    # The raise came from a message of replica 0: only that link was re-dialed.
    assert connects.pop((0, 1)) == 2
    assert set(connects.values()) == {1}
