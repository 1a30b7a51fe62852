"""Product-path reachability probe: which functions of ``src/repro`` no product run reaches.

Runs every product entry point — each ``repro`` subcommand, the examples and
``bench/run.py --smoke`` — in child processes whose ``sitecustomize`` installs
a ``sys.setprofile`` / ``threading.setprofile`` hook.  The hook records the
``(co_filename, co_firstlineno)`` of every code object entered under
``src/repro`` and dumps the record at exit (``atexit``, and a wrapper around
``os._exit``, which forked sweep workers leave through).  An AST pass then
lists every function in ``src/repro``, keyed on its first decorator line, as
the code object's ``co_firstlineno`` is.  A function no invocation entered is
*unreached*; the probe fails on any unreached function that is not on
:data:`ALLOWED` (with the reason it stays), and on an :data:`ALLOWED` entry
that names no function any more.

Run it from the repository root (about 8.5 minutes on 2 CPUs, over half of
it the two ``repro figure all`` runs)::

    python tests/reachability.py

It prints the counts, every unreached function (allowed ones marked ``ok``),
and exits 1 when an unreached function is not allowed.  It writes only into a
temporary directory.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

if __name__ == "__main__":  # run as a script: put the repository root on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import source_index  # noqa: E402

ROOT = source_index.ROOT
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
PROTOCOLS = ("caesar", "epaxos", "multipaxos", "mencius", "m2paxos")
INVOCATION_TIMEOUT_S = 1800

#: Installed in every child process through ``PYTHONPATH``.
SITECUSTOMIZE = '''\
import atexit, itertools, os, sys, threading

_OUT = os.environ["REPRO_REACH_OUT"]
_seen = set()
_dumps = itertools.count()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    rows = {f"{code.co_filename}\\t{code.co_firstlineno}" for code in list(_seen)
            if "repro" in code.co_filename}
    path = os.path.join(_OUT, f"{os.getpid()}-{next(_dumps)}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\\n".join(sorted(rows)))


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

_SAFETY = "recovery or fault path: safety code a failure-free product run need not reach"
_CONTRACT = "member of an interface contract every implementation must provide"

#: Functions no product path runs that stay, each with the reason.  Keys are
#: ``<path under src/repro>::<qualified name>``.
ALLOWED: Dict[str, str] = {
    # Recovery and fault paths.
    "runtime/kernel.py::ProtocolKernel.catchup_need": _SAFETY,
    "runtime/kernel.py::ProtocolKernel.catchup_supply": _SAFETY,
    "baselines/epaxos.py::EPaxosReplica.catchup_need": _SAFETY,
    "baselines/epaxos.py::EPaxosReplica.catchup_supply": _SAFETY,
    "baselines/m2paxos.py::M2PaxosReplica.catchup_need": _SAFETY,
    "baselines/m2paxos.py::M2PaxosReplica.catchup_supply": _SAFETY,
    "baselines/m2paxos.py::M2PaxosReplica._on_accept_nack": _SAFETY,
    "baselines/m2paxos.py::M2PaxosReplica._reroute_preempted": _SAFETY,
    "net/replica.py::ReplicaServer.crash": "in-process crash of a TCP replica (fault injection)",
    "net/cluster.py::LocalCluster.kill": "process crash of a served replica; serve-mode restart",
    "net/cluster.py::LocalCluster.restart": "amnesiac restart of a served replica",
    "consensus/command.py::KeyBindingError.__init__":
        "refuses a message that names a command on a second key (outside input)",
    "consensus/command.py::Command.conflicts_with":
        "the conflict relation; the order checks evaluate it only on logs that disagree",
    # Failure reporting.
    "chaos/checker.py::LinearizabilityReport.violations": "reports a failed check",
    "chaos/checker.py::LinearizabilityReport.inconclusive": "reports an exhausted check budget",
    "chaos/history.py::Operation.brief": "prints an operation in a violation witness",
    "consensus/timestamps.py::LogicalTimestamp.__str__":
        "prints a timestamp in TimestampRangeError and in witnesses",
    # Seams the benchmark's tracer binds by name.
    "core/delivery.py::DeliveryManager.retry_pending": "bench/trace.py span seam",
    "core/predecessors.py::WaitManager.notify_change": "bench/trace.py span seam",
    "sim/topology.py::Topology.quorum_latency":
        "analytic quorum latency, waiting for the fidelity table to use it",
    # The public api surface.
    "api.py::__dir__": "public api: names for dir() and completion",
    "harness/protocols.py::register_protocol": "public api: plug in a protocol",
    "sim/topology.py::custom_topology": "public api: a topology from an RTT matrix",
    # Contracts.
    "consensus/interface.py::ConsensusReplica.propose": _CONTRACT,
    "sim/node.py::Node.handle_message": _CONTRACT,
    "kvstore/state_machine.py::StateMachine.apply": _CONTRACT,
    "kvstore/state_machine.py::StateMachine.snapshot": _CONTRACT,
    "kvstore/state_machine.py::StateMachine.reset": _CONTRACT,
    "kvstore/store.py::KeyValueStore.snapshot": "state machine contract; state transfer needs it",
    "kvstore/store.py::KeyValueStore.reset": "state machine contract; state transfer needs it",
    "runtime/admission.py::AdmissionPolicy._check": _CONTRACT,
    "runtime/clock.py::Clock.now": _CONTRACT,
    "runtime/clock.py::Clock.schedule": _CONTRACT,
    "net/clock.py::ScheduledCall.cancelled": "timer handle contract, as Event.cancelled",
    "runtime/transport.py::Transport.start": _CONTRACT,
    "runtime/transport.py::Transport.send": _CONTRACT,
    "runtime/transport.py::Transport.broadcast": _CONTRACT,
    "runtime/transport.py::Transport.set_timer": _CONTRACT,
    "runtime/transport.py::Transport.drop_unsent": _CONTRACT,
    "runtime/transport.py::Transport.close": _CONTRACT,
    "net/transport.py::AsyncioTransport.drop_unsent": _CONTRACT,
    "runtime/codec.py::Codec.emit_encode": "codec base class: every kind overrides it",
    "runtime/codec.py::Codec.emit_decode": "codec base class: every kind overrides it",
    "runtime/registry.py::MessageCodec.emit_encode": "codec contract for a nested message",
    "runtime/registry.py::MessageCodec.emit_decode": "codec contract for a nested message",
    "consensus/timestamps.py::LogicalTimestamp.__le__":
        "total order: a type with < but not <= is a trap",
    "consensus/timestamps.py::LogicalTimestamp.__ge__":
        "total order: a type with < but not <= is a trap",
    "sim/events.py::EventQueue.peek_time": "Simulator.run_until at a deadline with events left",
}


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def invocations(out_dir: Path) -> List[Tuple[str, List[str]]]:
    """Every product command the probe runs, as ``(label, argv)``."""
    runs = [("topology", _cli("topology"))]
    for protocol in PROTOCOLS:
        runs += [
            (f"run {protocol}", _cli("run", "--protocol", protocol, "--conflicts", "30",
                                     "--clients", "4", "--duration", "3000")),
            (f"chaos {protocol} crash-restart",
             _cli("chaos", "--protocol", protocol, "--nemesis", "crash-restart", "--quick")),
            (f"loadgen --launch {protocol}",
             _cli("loadgen", "--launch", "3", "--protocol", protocol, "--clients", "3",
                  "--commands", "5", "--seed", "4", "--timeout", "60")),
        ]
    runs += [
        ("run --admission --batching", _cli("run", "--admission", "inflight:2", "--batching",
                                            "--conflicts", "30", "--duration", "3000")),
        ("run --history-gc --throughput", _cli("run", "--history-gc", "--throughput",
                                               "--conflicts", "30", "--duration", "3000")),
        ("run deadline admission", _cli("run", "--admission", "deadline:200", "--clients",
                                        "40", "--duration", "3000")),
        ("chaos --list-schedules", _cli("chaos", "--list-schedules")),
        ("chaos", _cli("chaos")),
        ("chaos --matrix", _cli("chaos", "--matrix", "--quick", "--seed", "7")),
        ("chaos --matrix --recovery", _cli("chaos", "--matrix", "--quick", "--recovery",
                                           "--seed", "7")),
        ("chaos --random --include-lossy", _cli("chaos", "--random", "6", "--include-lossy",
                                                "--quick", "--recovery")),
        ("chaos multipaxos leader-crash", _cli("chaos", "--protocol", "multipaxos", "--nemesis",
                                               "leader-crash", "--recovery", "--quick")),
        ("overload sim", _cli("overload", "--offered", "300", "900", "--duration", "2000",
                              "--admission", "deadline:300", "--history-gc")),
        ("overload tcp", _cli("overload", "--substrate", "tcp", "--offered", "100", "300",
                              "--duration", "1000", "--json")),
        ("loadgen --open-loop", _cli("loadgen", "--launch", "3", "--protocol", "epaxos",
                                     "--clients", "2", "--open-loop", "--rate", "20",
                                     "--duration", "1500", "--seed", "7")),
        ("loadgen --json --admission", _cli("loadgen", "--launch", "3", "--conflicts", "100",
                                            "--clients", "4", "--commands", "200",
                                            "--admission", "inflight:8", "--json")),
        ("figure --list-cells", _cli("figure", "all", "--list-cells", "--cells", "fig9/*")),
        ("figure --cells", _cli("figure", "7", "--cells", "fig7/caesar*")),
        ("figure all --quick", _cli("figure", "all", "--quick", "--workers", "2")),
        ("figure all --out", _cli("figure", "all", "--workers", "2", "--out", str(out_dir))),
        ("bench/run.py --smoke", [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"]),
    ]
    runs += [(f"examples/{path.name}", [sys.executable, str(path)])
             for path in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def _free_ports(count: int) -> List[int]:
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _wait_listening(ports: List[int], timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    for port in ports:
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"nothing listening on port {port}")
                time.sleep(0.1)


def _interrupt(processes: List[subprocess.Popen], sig: int = signal.SIGINT) -> None:
    """Stop served replicas the way a user does (Ctrl-C, or ``kill``'s SIGTERM),
    so their records are dumped."""
    for process in processes:
        process.send_signal(sig)
    for process in processes:
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def serve_runs(env: Dict[str, str]) -> None:
    """``repro serve``: the launcher and ``--node-id`` replicas, each driven by a loadgen."""
    launcher = subprocess.Popen(_cli("serve", "--protocol", "caesar", "--seed", "2"),
                                env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    endpoints = []
    try:
        for line in launcher.stdout:
            if line.strip().startswith("--endpoint"):
                endpoints += line.split()
            if line.startswith("press Ctrl-C"):
                break
        _checked(_cli("loadgen", *endpoints, "--clients", "2", "--commands", "5",
                      "--timeout", "60"), env)
    finally:
        # The launcher stops its cluster on a SIGTERM as on Ctrl-C.
        _interrupt([launcher], signal.SIGTERM)

    ports = _free_ports(3)
    peers = [arg for node, port in enumerate(ports)
             for arg in ("--peer", f"{node}=127.0.0.1:{port}")]
    replicas = [subprocess.Popen(_cli("serve", "--protocol", "epaxos", "--node-id", str(node),
                                      *peers), env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
                for node in range(3)]
    try:
        _wait_listening(ports)
        endpoints = [arg for node, port in enumerate(ports)
                     for arg in ("--endpoint", f"{node}=127.0.0.1:{port}")]
        _checked(_cli("loadgen", "--protocol", "epaxos", *endpoints, "--clients", "2",
                      "--commands", "5", "--timeout", "60"), env)
    finally:
        _interrupt(replicas)


def _checked(argv: List[str], env: Dict[str, str]) -> None:
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")


def functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """Every function under ``src/repro``: ``(path, first line) -> (qualname, last line)``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    return {(function.path, min([node.lineno] + [d.lineno for d in node.decorator_list])):
            (function.qualname, node.end_lineno)
            for function in source_index.functions() for node in [function.node]}


def reached(record_dir: Path) -> Set[Tuple[str, int]]:
    """The ``(path under src/repro, first line)`` of every code object a child entered."""
    package = os.path.realpath(PACKAGE)
    seen = set()
    for record in record_dir.glob("*.txt"):
        for row in record.read_text(encoding="utf-8").splitlines():
            filename, line = row.rsplit("\t", 1)
            filename = os.path.realpath(filename)
            if filename.startswith(package + os.sep):
                seen.add((Path(filename).relative_to(package).as_posix(), int(line)))
    return seen


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        tmp = Path(tmp)
        hook_dir, record_dir, out_dir = tmp / "hook", tmp / "records", tmp / "figures"
        for directory in (hook_dir, record_dir, out_dir):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        env = dict(os.environ, REPRO_REACH_OUT=str(record_dir),
                   PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]))
        for label, argv in invocations(out_dir):
            began = time.monotonic()
            _checked(argv, env)
            print(f"ran {label:36s} {time.monotonic() - began:7.1f} s", flush=True)
        began = time.monotonic()
        serve_runs(env)
        print(f"ran {'serve (launcher, --node-id)':36s} {time.monotonic() - began:7.1f} s")
        seen = reached(record_dir)

    table = functions()
    unreached = {key: value for key, value in table.items() if key not in seen}
    names = {f"{path}::{qualname}" for (path, _), (qualname, _) in table.items()}
    lines = {(path, line) for (path, first), (_, last) in unreached.items()
             for line in range(first, last + 1)}
    print(f"\n{len(table)} functions in src/repro, {len(unreached)} unreached "
          f"({len(lines)} lines); probe took {time.monotonic() - started:.0f} s")
    failures = []
    for (path, first), (qualname, last) in sorted(unreached.items()):
        name = f"{path}::{qualname}"
        allowed = name in ALLOWED
        print(f"  {'ok  ' if allowed else 'FAIL'} {name}:{first} ({last - first + 1} lines)")
        if not allowed:
            failures.append(name)
    unreached_names = {f"{path}::{qualname}" for (path, _), (qualname, _) in unreached.items()}
    for name in sorted(set(ALLOWED) & names - unreached_names):
        print(f"  note allow-listed but reached this run: {name}")
    stale = sorted(set(ALLOWED) - names)
    for name in stale:
        print(f"  FAIL allow-list entry names no function: {name}")
    if failures or stale:
        print(f"{len(failures)} unreached function(s) not on the allow-list, "
              f"{len(stale)} stale allow-list entr(ies)")
        return 1
    print("every unreached function is on the allow-list")
    return 0


if __name__ == "__main__":
    sys.exit(main())
