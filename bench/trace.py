"""Span recorder for the traced benchmark repetition.

The recorder lives entirely in the benchmark: it wraps the functions at each
layer seam of ``src/repro`` from the outside (class attributes and the module
globals that hold by-name imports), so the program under test carries no
tracing code.  Every call of a wrapped function is one span: name, start,
end, the span that was open when it started, and the command id when an
argument exposes one.  A span's *self time* is its duration minus the part
its child spans cover, so the self times of all spans plus the root's own
self time add up to the measured call.

Span names are ``<layer>.<part>[.<function>]`` where ``<layer>`` is a
``src/repro`` package name; ``worker.py`` sums them by prefix into the
per-layer metrics.

Wrappers must be installed before the cluster is built: instances pre-bind
hot-path methods at construction (``SimulatorTransport._network_send``, the
kernel's ``_dispatch`` table), so a later patch would be missed.
"""

from __future__ import annotations

import json
from functools import wraps
from time import perf_counter_ns

#: Spans written to ``bench/out/``; self times and call counts cover every
#: span regardless.  A full-size repetition produces over a million spans.
SPAN_FILE_CAP = 200_000


class Tracer:
    """In-memory span recorder with per-name self-time and call totals."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: free-form counters kept at the same seams (frames, bytes read).
        self.counts: dict[str, int] = {}
        #: ``(span_id, parent_id, name, start_ns, end_ns, command_id)``
        self.spans: list[tuple] = []
        # Open spans, innermost last: ``[child_ns, span_id]``.
        self._stack: list[list[int]] = []
        self._next_id = 0

    # ------------------------------------------------------------- recording

    def wrap(self, name: str, fn, command_of=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``command_of(args)`` extracts a command id from the call's positional
        arguments (or returns ``None``); it only runs while spans are still
        being kept for the span file.
        """
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)

        @wraps(fn)
        def traced(*args, **kwargs):
            self._next_id = span_id = self._next_id + 1
            parent_id = stack[-1][1] if stack else 0
            frame = [0, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_FILE_CAP:
                    command_id = command_of(args) if command_of is not None else None
                    spans.append((span_id, parent_id, name, start, end, command_id))

        return traced

    def wrap_generator(self, name: str, fn, on_call=None):
        """Wrap a generator function: one span per resumption of its body.

        ``on_call(args)`` runs once per call (used to count bytes fed); every
        yielded item increments ``counts[name + ".yielded"]``.
        """
        yielded = name + ".yielded"
        self.counts.setdefault(yielded, 0)
        resume = self.wrap(name, next)

        @wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = resume(iterator)
                except StopIteration:
                    return
                self.counts[yielded] += 1
                yield item

        return traced

    def wrap_submit(self, name: str, fn, callback_name: str):
        """Wrap ``submit(self, command, callback)`` and the callback it is given.

        Reply callbacks are closures created per command, so they cannot be
        patched at class level; they are wrapped on their way in instead.
        """
        inner = self.wrap(name, fn, command_of=_command_of_second)

        @wraps(fn)
        def submit(obj, command, callback=None):
            if callback is not None:
                callback = self.wrap(callback_name, callback)
            return inner(obj, command, callback)

        return submit

    def patch(self, owner, attribute: str, name: str, command_of=None) -> None:
        """Replace ``owner.attribute`` (class or module) with a traced wrapper."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), command_of))

    # -------------------------------------------------------------- reporting

    def self_us(self, prefix: str) -> float:
        """Summed self time, in microseconds, of every span named ``prefix*``.

        The empty prefix gives the part of the run the layers account for.
        """
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1000.0

    def call_count(self, prefix: str) -> int:
        """Number of spans named ``prefix*``."""
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def write(self, path) -> None:
        """Write the kept spans, one JSON object per line, then the totals."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent_id, name, start, end, command_id in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                      "start_ns": start, "end_ns": end,
                                      "command": command_id}) + "\n")
            out.write(json.dumps({"totals": {name: {"self_ns": ns, "calls": self.calls[name]}
                                             for name, ns in sorted(self.self_ns.items())},
                                  "spans_recorded": self._next_id,
                                  "spans_written": len(self.spans)}) + "\n")


def _command_of_second(args):
    """Command id of ``(self, command, ...)`` calls."""
    return getattr(args[1], "command_id", None) if len(args) > 1 else None


def _command_of_message(args):
    """Command id of ``(self, src, message)`` handler calls, when one exists."""
    if len(args) < 3:
        return None
    message = args[2]
    command_id = getattr(message, "command_id", None)
    if command_id is None:
        command_id = getattr(getattr(message, "command", None), "command_id", None)
    return command_id


def _methods(cls, *prefixes):
    """Names of the functions ``cls`` itself defines that start with a prefix."""
    return [name for name, value in vars(cls).items()
            if callable(value) and name.startswith(prefixes)]


def install(tracer: Tracer, substrate: str, protocol: str) -> None:
    """Patch every layer seam the ``substrate`` (``sim`` or ``tcp``) run crosses.

    ``Node`` is shared by both substrates: on TCP its ``receive`` is the tail
    of the replica server's inbound dispatch, so it is named ``net.*`` there
    and every ``sim.*`` span stays at zero.
    """
    from repro.consensus.interface import ConsensusReplica, ExecutionLog
    from repro.kvstore.store import KeyValueStore
    from repro.metrics.collector import MetricsCollector
    from repro.runtime.kernel import ProtocolKernel, RetransmitBuffer
    from repro.runtime.registry import MessageRegistry
    from repro.sim.failures import FailureDetector
    from repro.sim.node import Node
    from repro.workload.clients import ClosedLoopClient, OpenLoopClient
    from repro.workload.generator import ConflictWorkload

    patch = tracer.patch

    # runtime: the transport seam, codec and kernel plumbing (both substrates).
    for name in ("send", "broadcast", "set_timer"):
        patch(Node, name, f"runtime.transport.node_{name}")
    patch(MessageRegistry, "encode", "runtime.codec_encode")
    patch(MessageRegistry, "decode", "runtime.codec_decode")
    patch(ProtocolKernel, "handle_message", "runtime.kernel.handle_message",
          _command_of_message)
    for name in ("_on_heartbeat", "_on_catchup_request", "_on_catchup_reply",
                 "_catchup_check", "note_progress_gap"):
        patch(ProtocolKernel, name, f"runtime.kernel.{name.lstrip('_')}")
    for name in ("track", "resolve", "_scan"):
        patch(RetransmitBuffer, name, f"runtime.kernel.retransmit_{name.lstrip('_')}")
    for name in ("_emit_heartbeat", "_schedule_check"):
        patch(FailureDetector, name, f"runtime.kernel.detector{name}")

    # consensus / kvstore / workload / metrics (both substrates).
    reply_name = "workload.client.on_result" if substrate == "sim" else "net.replica.reply"
    ConsensusReplica.submit = tracer.wrap_submit(
        "consensus.submit", ConsensusReplica.submit, reply_name)
    patch(ConsensusReplica, "execute_command", "consensus.execute", _command_of_second)
    patch(ExecutionLog, "append", "consensus.execlog_append", _command_of_second)
    patch(KeyValueStore, "apply", "kvstore.apply", _command_of_second)
    patch(ConflictWorkload, "next_command", "workload.generate")
    patch(ClosedLoopClient, "_submit_next", "workload.client.submit_next")
    patch(ClosedLoopClient, "_maybe_reconnect", "workload.client.maybe_reconnect")
    patch(OpenLoopClient, "_inject", "workload.client.inject")
    patch(OpenLoopClient, "_schedule_next", "workload.client.schedule_next")
    patch(MetricsCollector, "record_command", "metrics.record")

    if protocol == "caesar":
        _install_caesar(tracer)
    elif protocol == "epaxos":
        _install_epaxos(tracer)
    else:
        raise ValueError(f"no span table for protocol {protocol!r}")

    if substrate == "sim":
        _install_sim(tracer)
    else:
        _install_tcp(tracer)


def _install_caesar(tracer: Tracer) -> None:
    import repro.core.caesar as caesar
    import repro.core.predecessors as predecessors
    from repro.core.delivery import DeliveryManager
    from repro.core.history import CommandHistory
    from repro.core.recovery import RecoveryManager

    patch = tracer.patch
    replica = caesar.CaesarReplica
    patch(replica, "propose", "core.handler.propose", _command_of_second)
    for name in _methods(replica, "_on_"):
        patch(replica, name, f"core.handler.{name[1:]}", _command_of_message)
    # Called back from inside ``WaitManager.evaluate`` once WAIT terminates.
    patch(replica, "_answer_proposal", "core.handler.answer_proposal")
    for name in _methods(RecoveryManager, "on_", "start_recovery", "_recover_commands_of"):
        patch(RecoveryManager, name, f"core.handler.recovery_{name.lstrip('_')}")
    for name in ("update", "mask_from_ids", "ids_from_mask", "remove"):
        patch(CommandHistory, name, f"core.history.{name}")
    # ``compute_predecessor_mask`` is imported by name, so each importing
    # module's global is patched rather than the defining module alone.
    traced = tracer.wrap("core.predecessors.compute", predecessors.compute_predecessor_mask)
    predecessors.compute_predecessor_mask = traced
    caesar.compute_predecessor_mask = traced
    for name in ("evaluate", "notify_entry", "notify_change", "drop_command"):
        patch(predecessors.WaitManager, name, f"core.wait.{name}")
    for name in ("on_stable", "retry_pending"):
        patch(DeliveryManager, name, f"core.delivery.{name}")


def _install_epaxos(tracer: Tracer) -> None:
    from repro.baselines.epaxos import EPaxosReplica

    patch = tracer.patch
    patch(EPaxosReplica, "propose", "baselines.handler.propose", _command_of_second)
    for name in _methods(EPaxosReplica, "_on_"):
        patch(EPaxosReplica, name, f"baselines.handler.{name[1:]}", _command_of_message)
    patch(EPaxosReplica, "_try_execute", "baselines.execution.try_execute")
    patch(EPaxosReplica, "_execution_order", "baselines.execution.order")


def _install_sim(tracer: Tracer) -> None:
    from repro.harness.cluster import Cluster
    from repro.runtime.transport import SimulatorTransport
    from repro.sim.network import Network
    from repro.sim.node import Node

    patch = tracer.patch
    # ``Simulator.run`` inlines its heap pops, so the event loop's own cost is
    # the ``Cluster.run`` span minus everything the events call.
    patch(Cluster, "run", "sim.loop")
    patch(Network, "send", "sim.network.send")
    patch(Network, "_deliver", "sim.network.deliver")
    patch(Node, "receive", "sim.node_receive")
    for name in ("send", "broadcast", "set_timer"):
        patch(SimulatorTransport, name, f"runtime.transport.{name}")


def _install_tcp(tracer: Tracer) -> None:
    import repro.net.client as client
    import repro.net.replica as replica
    import repro.net.transport as transport
    from repro.net.framing import FrameDecoder
    from repro.sim.node import Node

    patch = tracer.patch
    tracer.counts["net.framing.bytes_fed"] = 0

    def count_bytes(args) -> None:
        tracer.counts["net.framing.bytes_fed"] += len(args[1])

    FrameDecoder.feed = tracer.wrap_generator("net.framing.feed", FrameDecoder.feed,
                                              on_call=count_bytes)
    # ``encode_frame`` is imported by name into each of these modules.
    encode_frame = tracer.wrap("net.framing.encode_frame", transport.encode_frame)
    for module in (transport, replica, client):
        module.encode_frame = encode_frame
    for name in ("send", "broadcast", "_transmit", "set_timer"):
        patch(transport.AsyncioTransport, name, f"net.transport_send.{name.lstrip('_')}")
    patch(transport.PeerConnection, "send_frame", "net.transport_send.send_frame")
    patch(transport.PeerNetwork, "deliver_local", "net.replica.deliver_local")
    patch(replica.ReplicaServer, "_dispatch", "net.replica.dispatch")
    patch(replica.ReplicaServer, "_submit", "net.replica.submit")
    patch(Node, "receive", "net.replica.node_receive")
    client.RemoteReplica.submit = tracer.wrap_submit(
        "net.client.submit", client.RemoteReplica.submit, "workload.client.on_result")
