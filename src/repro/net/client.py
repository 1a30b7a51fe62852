"""TCP clients: the socket-side counterpart of the in-process workload.

:class:`RemoteReplica` is a connection to one replica server that quacks
like a :class:`~repro.consensus.interface.ConsensusReplica` as far as the
workload clients care (``node_id`` / ``crashed`` / ``submit``), so the
*same* :class:`~repro.workload.clients.ClosedLoopClient` and
:class:`~repro.workload.clients.OpenLoopClient` that drive simulator runs
drive real clusters — running on a :class:`~repro.net.clock.WallClock`
instead of the simulator, with latencies measured in real milliseconds.  It
is its connection's :class:`asyncio.Protocol`: a reply's callback runs in the
event-loop callback that read the reply, and ``connection_lost`` is the one
place a dead connection is seen (``crashed`` set, nothing left outstanding).

:func:`connect_pool` is how a pool of them is made: it dials the connections
and hands them to :func:`~repro.workload.clients.build_pool` as targets, so a
seed is the same workload here as on the simulator.

:func:`run_loadgen` is the engine behind ``repro loadgen``: it connects the
configured clients, replays the seeded workload, waits for completion and
full replication, and returns a :class:`LoadgenReport`.

:func:`fetch_stats` is a small *blocking* helper (plain sockets, no asyncio)
for control-plane callers — the cluster launcher and the CLI — to pull a
replica's JSON statistics snapshot.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.consensus.command import ALREADY_EXECUTED, IN_FLIGHT, Command, CommandResult
from repro.metrics.collector import MetricsCollector
from repro.net.clock import WallClock
from repro.net.framing import FrameDecoder, FramingError, encode_frame
from repro.net.wire import (ROLE_CLIENT, ROLE_CONTROL, ClientReply,
                            ClientRequest, Hello, StatsReply, StatsRequest)
from repro.runtime.registry import WIRE, WireDecodeError
from repro.workload.clients import ClientPool, build_pool
from repro.workload.generator import WorkloadConfig, check_load


class RemoteReplica(asyncio.Protocol):
    """A replica reached over TCP, presenting the local-replica surface.

    Args:
        node_id: the remote replica's id (used as every command's origin).
        host/port: the replica server's listen address.
        client_id: id announced in the connection's Hello frame.
    """

    def __init__(self, node_id: int, host: str, port: int, client_id: int) -> None:
        self.node_id = node_id
        self.host = host
        self.port = port
        self.client_id = client_id
        #: mirrors the local-replica surface: flips when the connection dies,
        #: so closed-loop reconnect logic behaves as it does in-sim.
        self.crashed = False
        self._transport: Optional[asyncio.Transport] = None
        self._decoder = FrameDecoder()
        self._pending: Dict[Tuple[int, int], Callable[[CommandResult], None]] = {}
        #: replies rejecting an id the replica had already executed, or
        #: still had in flight (another session named it too)
        self.already_executed = 0

    async def connect(self) -> None:
        """Dial the replica and start dispatching replies."""
        await asyncio.get_running_loop().create_connection(
            lambda: self, self.host, self.port)

    def connection_made(self, transport: asyncio.Transport) -> None:
        transport.write(encode_frame(WIRE.encode(
            Hello(sender=self.client_id, role=ROLE_CLIENT))))
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            for payload in self._decoder.feed(data):
                message = WIRE.decode_one(payload)
                if isinstance(message, ClientReply):
                    callback = self._pending.pop(message.command_id, None)
                    if callback is not None:
                        if message.rejected in (ALREADY_EXECUTED, IN_FLIGHT):
                            self.already_executed += 1
                        callback(CommandResult(message.command_id, message.value, 0.0,
                                               message.rejected))
        except (FramingError, WireDecodeError):
            self._transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # No reply can arrive on a dead connection: nothing stays outstanding
        # (the clients' failover re-submits).
        self.crashed = True
        self._pending.clear()

    def submit(self, command: Command,
               callback: Callable[[CommandResult], None]) -> None:
        """Send a command for ordering; ``callback`` fires on its reply."""
        transport = self._transport
        if transport is None or transport.is_closing():
            self.crashed = True
            return
        self._pending[command.command_id] = callback
        transport.write(encode_frame(WIRE.encode(ClientRequest(command=command))))

    @property
    def outstanding(self) -> int:
        """Commands submitted but not yet answered."""
        return len(self._pending)

    async def close(self) -> None:
        """Drop the connection (idempotent)."""
        if self._transport is not None:
            self._transport.close()


#: Closed-loop give-up time over sockets.  It must exceed the leader's
#: fast-proposal timeout plus a slow round: a command proposed in the suspicion
#: window pays that full fallback latency, and abandoning it a hair earlier
#: discards the reply and restarts the cycle.
RECONNECT_TIMEOUT_MS = 3000.0


async def connect_pool(endpoints: Dict[int, Tuple[str, int]], clients: int,
                       workload: WorkloadConfig, clock: WallClock, metrics: MetricsCollector,
                       **pool_options) -> Tuple[ClientPool, List[RemoteReplica]]:
    """Dial one connection per client, round-robin over ``endpoints``, and build the pool.

    With more than one endpoint, a client whose connection died moves to one
    shared connection per replica (command ids are globally unique, so a
    shared connection routes each reply to the right callback).
    ``pool_options`` go to :func:`~repro.workload.clients.build_pool`.
    Returns the pool and every connection opened, for the caller to close.
    """
    replica_ids = sorted(endpoints)

    async def dial(replica_id: int, client_id: int) -> RemoteReplica:
        remote = RemoteReplica(replica_id, *endpoints[replica_id], client_id=client_id)
        await remote.connect()
        return remote

    shared = ([await dial(replica_id, clients + replica_id) for replica_id in replica_ids]
              if len(replica_ids) > 1 else [])
    targets = [await dial(replica_ids[client_id % len(replica_ids)], client_id)
               for client_id in range(clients)]
    pool = build_pool(targets, workload, clock, metrics, failover=shared, **pool_options)
    return pool, shared + targets


def fetch_stats(host: str, port: int, timeout_s: float = 10.0) -> Dict[str, object]:
    """Fetch one replica's JSON statistics snapshot (blocking, no asyncio)."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(encode_frame(WIRE.encode(Hello(sender=0, role=ROLE_CONTROL))))
        sock.sendall(encode_frame(WIRE.encode(StatsRequest(0))))
        decoder = FrameDecoder()
        while True:
            data = sock.recv(64 * 1024)
            if not data:
                raise ConnectionError(f"replica at {host}:{port} closed the "
                                      "connection before replying to StatsRequest")
            for payload in decoder.feed(data):
                message = WIRE.decode_one(payload)
                if isinstance(message, StatsReply):
                    return json.loads(message.payload)


@dataclass
class LoadgenConfig:
    """Parameters for one load-generation run against a live cluster.

    Attributes:
        endpoints: replica id -> ``(host, port)``; clients are spread
            round-robin across them (one "site" each, like the paper's
            co-located clients).
        clients: number of clients in total.
        commands_per_client: closed-loop budget per client (ignored in open
            loop).
        open_loop: use Poisson open-loop injection instead of closed loop.
        rate_per_client: open-loop injection rate (commands/second/client).
        duration_ms: open-loop injection window.
        conflict_rate: shared-key probability of the generated workload.
        seed: workload seed; the command streams equal a simulator run with
            the same seed/client count.
        warmup_ms: real milliseconds after start during which latency samples
            are discarded (mirrors the simulator's warm-up window; completed
            commands still count toward closed-loop budgets).
        timeout_s: overall wall-clock budget for the run.
    """

    endpoints: Dict[int, Tuple[str, int]]
    clients: int = 3
    commands_per_client: int = 10
    open_loop: bool = False
    rate_per_client: float = 50.0
    duration_ms: float = 2000.0
    conflict_rate: float = 0.02
    seed: int = 0
    warmup_ms: float = 0.0
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        check_load(self.clients, self.conflict_rate, self.duration_ms, self.warmup_ms,
                   self.rate_per_client if self.open_loop else None)


@dataclass
class LoadgenReport:
    """Outcome of a :func:`run_loadgen` run.

    ``throughput_per_second`` counts *completed* commands only, so with an
    admission policy installed it is the run's goodput; ``rejected`` counts
    the commands a replica did not order, of which ``already_executed`` named
    an id the cluster had executed before or was still ordering; a session
    with any fails.
    """

    submitted: int
    completed: int
    rejected: int
    already_executed: int
    wall_seconds: float
    mean_latency_ms: Optional[float]
    p50_latency_ms: Optional[float]
    p99_latency_ms: Optional[float]
    p999_latency_ms: Optional[float]
    throughput_per_second: float
    per_replica: Dict[int, Dict[str, object]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run completed its workload with no failures."""
        return not self.failures

    def describe(self) -> str:
        """Human-readable summary (what ``repro loadgen`` prints)."""
        lines = [f"completed:  {self.completed}/{self.submitted} commands "
                 f"in {self.wall_seconds:.1f}s ({self.throughput_per_second:.1f}/s)"]
        if self.mean_latency_ms is not None:
            lines.append(f"latency:    mean {self.mean_latency_ms:.1f} ms, "
                         f"p99 {self.p99_latency_ms:.1f} ms")
        lines.append(f"rejected:   {self.rejected} ({self.already_executed} reused ids)")
        for node_id, stats in sorted(self.per_replica.items()):
            lines.append(f"replica {node_id}:  executed "
                         f"{stats.get('commands_executed', 'n/a')}, "
                         f"handled {stats.get('messages_handled', 'n/a')} messages")
        lines.append("result:     " + ("ok" if self.ok else "FAILED"))
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (CLI output / CI artifacts)."""
        return {"submitted": self.submitted, "completed": self.completed,
                "rejected": self.rejected, "already_executed": self.already_executed,
                "wall_seconds": self.wall_seconds,
                "mean_latency_ms": self.mean_latency_ms,
                "p50_latency_ms": self.p50_latency_ms,
                "p99_latency_ms": self.p99_latency_ms,
                "p999_latency_ms": self.p999_latency_ms,
                "throughput_per_second": self.throughput_per_second,
                "ok": self.ok, "failures": list(self.failures),
                "per_replica": {str(k): v for k, v in self.per_replica.items()}}


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Drive a live cluster with the seeded workload (blocking wrapper)."""
    return asyncio.run(_loadgen(config))


async def _loadgen(config: LoadgenConfig) -> LoadgenReport:
    loop = asyncio.get_running_loop()
    clock = WallClock(seed=config.seed, loop=loop)
    metrics = MetricsCollector(warmup_ms=config.warmup_ms)
    failures: List[str] = []
    # Either loop leaves a dead replica when the endpoint map names another.
    pool, remotes = await connect_pool(
        config.endpoints, config.clients, WorkloadConfig(conflict_rate=config.conflict_rate),
        clock, metrics,
        open_loop_rate=config.rate_per_client if config.open_loop else None,
        stop_after_ms=config.duration_ms, max_commands=config.commands_per_client,
        reconnect_timeout_ms=RECONNECT_TIMEOUT_MS)

    started_at = loop.time()
    deadline = started_at + config.timeout_s
    pool.start_all()
    if config.open_loop:
        await asyncio.sleep(config.duration_ms / 1000.0)
        pool.stop_all()
        # Let outstanding commands drain.
        while (loop.time() < deadline
               and any(remote.outstanding for remote in remotes)):
            await asyncio.sleep(0.05)
    else:
        # Shed commands consume their loop slot (the client moves on), so the
        # budget is met once every slot is answered — completed or rejected.
        expected = config.clients * config.commands_per_client
        while (loop.time() < deadline
               and pool.total_completed + pool.total_rejected < expected):
            await asyncio.sleep(0.05)
        answered = pool.total_completed + pool.total_rejected
        if answered < expected:
            failures.append(f"timeout: {answered}/{expected} commands "
                            f"answered within {config.timeout_s:.0f}s")
    wall_seconds = loop.time() - started_at
    submitted = (sum(client.submitted for client in pool.clients) if config.open_loop
                 else pool.total_completed + pool.total_rejected)
    completed = pool.total_completed
    rejected = pool.total_rejected
    already_executed = sum(remote.already_executed for remote in remotes)
    if already_executed:
        # Ids are (client, sequence from 0), whatever the seed: a second
        # session against one cluster names the first one's.
        failures.append(f"{already_executed} commands named ids the cluster had already "
                        "executed or still had in flight")
    for remote in remotes:
        await remote.close()

    per_replica = await _drain_and_collect(config, completed, failures)

    summary = metrics.summary()
    return LoadgenReport(
        submitted=submitted, completed=completed, rejected=rejected,
        already_executed=already_executed, wall_seconds=wall_seconds,
        mean_latency_ms=summary.mean if summary else None,
        p50_latency_ms=summary.median if summary else None,
        p99_latency_ms=summary.p99 if summary else None,
        p999_latency_ms=summary.p999 if summary else None,
        throughput_per_second=completed / wall_seconds if wall_seconds > 0 else 0.0,
        per_replica=per_replica, failures=failures)


#: Extra wall-clock budget for full replication after the clients finish.
DRAIN_S = 10.0


async def _drain_and_collect(config: LoadgenConfig, completed: int,
                             failures: List[str]) -> Dict[int, Dict[str, object]]:
    """Wait until every replica executed every completed command; gather stats."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + DRAIN_S
    per_replica: Dict[int, Dict[str, object]] = {}
    lagging = dict(config.endpoints)
    while lagging:
        for replica_id, (host, port) in list(lagging.items()):
            try:
                stats = await asyncio.to_thread(fetch_stats, host, port)
            except OSError as exc:
                stats = {"error": f"{type(exc).__name__}: {exc}"}
            per_replica[replica_id] = stats
            if stats.get("commands_executed", -1) >= completed:
                del lagging[replica_id]
        if not lagging or loop.time() >= deadline:
            break
        await asyncio.sleep(0.1)
    for replica_id in sorted(lagging):
        got = per_replica.get(replica_id, {})
        failures.append(
            f"replica {replica_id} executed {got.get('commands_executed', 'n/a')} "
            f"of {completed} commands within the {DRAIN_S:.0f}s drain window"
            + (f" ({got['error']})" if "error" in got else ""))
    return per_replica
