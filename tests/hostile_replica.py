"""Attack one live CAESAR replica with byte streams, then commit a command.

A fixture, not a test module: ``tests/test_wire_hostile.py`` calls
:func:`attack_then_commit` in the pytest process, where every protocol module
is loaded, and runs this file as a script in a fresh interpreter, where the
replica has imported CAESAR and nothing else — the shape of a deployed
``repro serve`` child.  The script reads ``{name: hex stream}`` as JSON on
stdin and prints what happened as JSON, so it imports nothing from the test
modules (which load every protocol at collection time).
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
from typing import Dict

from repro.consensus.command import Command
from repro.net.client import RemoteReplica
from repro.net.loopback import LoopbackCluster


def _read_until_closed(sock: socket.socket) -> bytes:
    sock.settimeout(5.0)
    received = b""
    while True:
        chunk = sock.recv(4096)   # socket.timeout here fails the caller: never hang
        if not chunk:
            return received
        received += chunk


def _repro_modules() -> set:
    return {name for name in sys.modules if name.startswith("repro.")}


async def attack_then_commit(streams: Dict[str, bytes]) -> dict:
    """Send each stream to replica 0 on a connection of its own.

    Returns what each connection read back before the replica closed it, the
    contexts the loop's exception handler saw, the ``repro.*`` modules the
    attack made this process import, and the command committed afterwards.
    """
    loop = asyncio.get_running_loop()
    unhandled = []
    loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
    cluster = LoopbackCluster("caesar", replicas=3, seed=5)
    await cluster.start()
    try:
        host, port = cluster.peers[0]
        loaded = _repro_modules()
        received = {}
        for name, stream in streams.items():
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(stream)
                received[name] = await loop.run_in_executor(None, _read_until_closed, sock)
        imported = sorted(_repro_modules() - loaded)

        # The replica that was attacked still orders and executes a command.
        remote = RemoteReplica(0, host, port, client_id=7)
        await remote.connect()
        try:
            done = loop.create_future()
            command = Command(command_id=(7, 0), key="k", operation="put",
                              value="still-serving", origin=0)
            remote.submit(command, callback=done.set_result)
            result = await asyncio.wait_for(done, timeout=10.0)
        finally:
            await remote.close()
        executed = cluster.servers[0].replica.commands_executed
    finally:
        await cluster.stop()
    return {"received": received, "unhandled": unhandled, "imported": imported,
            "result": result, "executed": executed}


if __name__ == "__main__":
    outcome = asyncio.run(attack_then_commit(
        {name: bytes.fromhex(stream) for name, stream in json.load(sys.stdin).items()}))
    print(json.dumps({
        "received": {name: data.hex() for name, data in outcome["received"].items()},
        "unhandled": [str(context) for context in outcome["unhandled"]],
        "imported": outcome["imported"],
        "committed": list(outcome["result"].command_id),
        "rejected": bool(outcome["result"].rejected),
        "executed": outcome["executed"],
        "baselines_loaded": sorted(name for name in sys.modules
                                   if name.startswith("repro.baselines.")),
    }))
