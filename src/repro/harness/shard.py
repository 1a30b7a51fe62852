"""Sharded keyspace over independent consensus groups.

One consensus group cannot serve millions of users: every command, wherever
it originates, crosses the same O(n^2) message complexity and the same
per-replica decision path.  The classic scale-out is to partition the
keyspace into *shards* and run one independent protocol group per shard —
commands on different shards never conflict, so the groups proceed in
parallel with zero coordination.

This module builds that layer on top of the existing harness:

* :class:`ShardRouter` — routes a key to a shard with a process-stable hash
  (CRC32, never Python's salted ``hash``).
* :func:`run_sharded` — pre-generates every client's command stream from the
  configured workload, routes each command by key, and replays each shard's
  share on its own hermetic cluster (own simulator, network, replicas) seeded
  via ``DeterministicRandom.fork_cell(("shard", index))``.  Shards run
  through the sweep orchestrator, so a shard-parallel run is byte-identical
  to a one-worker run and scales with the hardware.

Determinism is end to end: the command streams are generated from CRC32-
derived client streams before any shard runs, routing is stable across
processes, and each shard's payload is a dict of primitives computed inside
its hermetic cell.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.consensus.command import Command
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.harness.sweep import SweepCell, SweepResult, Workers, run_sweep
from repro.metrics.collector import MetricsCollector
from repro.sim.network import NetworkConfig
from repro.sim.random import DeterministicRandom
from repro.sim.topology import Topology, wan_topology
from repro.workload.clients import ClientPool, ClosedLoopClient
from repro.workload.generator import (WorkloadSpec, ZipfWorkloadConfig,
                                      build_workload)


class ShardRouter:
    """Routes keys to shards.

    The default route is ``crc32(key) % shards`` — CRC32 is stable across
    processes and Python versions, so a key routes to the same shard in every
    worker, every run, every machine (Python's builtin ``hash`` is salted per
    process and must never leak into routing).
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards

    def shard_of(self, key: str) -> int:
        """The single shard responsible for ``key``."""
        return zlib.crc32(key.encode("utf-8")) % self.shards


class ScriptedWorkload:
    """Replays a pre-generated command list (one client's share of a shard).

    Implements the same ``next_command`` interface the live generators do, so
    :class:`~repro.workload.clients.ClosedLoopClient` drives it unchanged.
    """

    def __init__(self, commands: Sequence[Command]) -> None:
        self._commands = list(commands)
        self._next = 0
        self.generated = 0

    def __len__(self) -> int:
        return len(self._commands)

    def next_command(self) -> Command:
        """The next scripted command (raises ``IndexError`` past the end)."""
        command = self._commands[self._next]
        self._next += 1
        self.generated += 1
        return command


@dataclass
class ShardedConfig:
    """Description of one sharded run.

    Attributes:
        protocol: protocol name; every shard group runs the same protocol.
        shards: number of independent consensus groups.
        sites: number of distinct WAN sites per group.
        replicas_per_site: co-located replicas per site; each group has
            ``sites * replicas_per_site`` replicas.
        clients: number of clients.  Each client's stream is generated from
            the global workload and split across shards by key, so a hot
            shard honestly receives more commands under skew.
        commands_per_client: length of each client's stream.
        workload: key-distribution configuration
        (:class:`~repro.workload.generator.WorkloadConfig` or
            :class:`~repro.workload.generator.ZipfWorkloadConfig`).
        seed: base seed; shard ``i`` runs on the stream
            ``DeterministicRandom(seed).fork_cell(("shard", i))`` and client
            ``c``'s commands come from ``fork_cell(("shard-client", c))``.
    """

    protocol: str = "caesar"
    shards: int = 4
    sites: int = 20
    replicas_per_site: int = 1
    clients: int = 8
    commands_per_client: int = 5
    workload: WorkloadSpec = field(default_factory=lambda: ZipfWorkloadConfig())
    seed: int = 1

    def build_topology(self) -> Topology:
        """The per-group topology (shared by every shard group)."""
        return wan_topology(sites=self.sites, replicas_per_site=self.replicas_per_site,
                            seed=self.seed)


@dataclass(frozen=True)
class ShardTask:
    """One shard's hermetic unit of work (picklable; crosses into workers)."""

    shard: int
    protocol: str
    topology: Topology
    seed: int
    #: ``(client_id, commands)`` pairs, in client order.
    streams: Tuple[Tuple[int, Tuple[Command, ...]], ...]


def generate_streams(config: ShardedConfig) -> List[Tuple[int, List[Command]]]:
    """Generate every client's full command stream from the global workload.

    Client ``c`` draws from ``DeterministicRandom(config.seed).fork_cell(
    ("shard-client", c))`` — keyed on the client id, not on the shard — so
    the streams are independent of the shard count and a 1-shard run submits
    exactly the same commands as an 8-shard run.
    """
    base = DeterministicRandom(config.seed)
    streams: List[Tuple[int, List[Command]]] = []
    for client_id in range(config.clients):
        rng = base.fork_cell(("shard-client", client_id))
        workload = build_workload(client_id=client_id, origin=0,
                                  config=config.workload, rng=rng)
        commands = [workload.next_command() for _ in range(config.commands_per_client)]
        streams.append((client_id, commands))
    return streams


def route_streams(streams: Sequence[Tuple[int, Sequence[Command]]],
                  router: ShardRouter) -> List[List[Tuple[int, List[Command]]]]:
    """Split each client's stream across shards by key.

    Returns one ``(client_id, commands)`` list per shard; a client appears in
    a shard's list only when at least one of its commands routes there.
    Relative order within a client's shard-local stream matches the global
    stream, and command ids stay globally unique (``(client, seq)``).
    """
    per_shard: List[List[Tuple[int, List[Command]]]] = [[] for _ in range(router.shards)]
    for client_id, commands in streams:
        split: Dict[int, List[Command]] = {}
        for command in commands:
            split.setdefault(router.shard_of(command.key), []).append(command)
        for shard in sorted(split):
            per_shard[shard].append((client_id, split[shard]))
    return per_shard


#: Virtual-time bound for a shard group to decide its commands.
SHARD_DEADLINE_MS = 600000.0


def run_shard_task(task: ShardTask) -> Dict[str, object]:
    """Run one shard group to completion and reduce it to a primitive payload.

    Top-level (picklable by reference) so the sweep orchestrator can dispatch
    it to worker processes.  The shard decides every routed command or
    reports the shortfall; nothing about the run leaves the cell except this
    dict.
    """
    cluster_config = ClusterConfig(protocol=task.protocol, topology=task.topology,
                                   seed=task.seed, network=NetworkConfig(jitter_ms=3.0))
    cluster = build_cluster(cluster_config)
    metrics = MetricsCollector(warmup_ms=0.0)
    pool = ClientPool()
    all_ids = []
    for client_id, commands in task.streams:
        replica = cluster.replicas[client_id % cluster.size]
        workload = ScriptedWorkload(commands)
        pool.add(ClosedLoopClient(client_id=client_id, replica=replica,
                                  workload=workload, sim=cluster.sim, metrics=metrics,
                                  max_commands=len(commands)))
        all_ids.extend(command.command_id for command in commands)

    cluster.start()
    pool.start_all()
    cluster.run_until_executed(all_ids, deadline_ms=SHARD_DEADLINE_MS)
    violations = len(cluster.check_consistency())
    makespan_ms = cluster.sim.now
    summary = metrics.summary()
    # CRC of the sorted decided-command ids: a compact fingerprint of the
    # decided set that byte-identity tests can compare across runs.
    decided_ids = sorted(command_id for command_id in all_ids
                         if cluster.all_executed([command_id]))
    decided_crc = zlib.crc32(repr(decided_ids).encode("utf-8"))
    return {
        "shard": task.shard,
        "replicas": cluster.size,
        "submitted": len(all_ids),
        "completed": pool.total_completed,
        "undecided": len(all_ids) - len(decided_ids),
        "decided_set_crc32": decided_crc,
        "violations": violations,
        "conflict_rate": round(metrics.conflict_rate(), 6),
        "distinct_keys": len(metrics.per_key_counts()),
        "mean_latency_ms": round(summary.mean, 6) if summary is not None else None,
        "p99_latency_ms": round(summary.p99, 6) if summary is not None else None,
        "makespan_ms": round(makespan_ms, 6),
        "throughput_per_second": round(len(all_ids) * 1000.0 / makespan_ms, 6)
                                 if makespan_ms > 0 else 0.0,
    }


@dataclass
class ShardedResult:
    """Everything a sharded run measured, plus the underlying sweep."""

    config: ShardedConfig
    shards: List[Dict[str, object]]
    sweep: SweepResult

    @property
    def total_submitted(self) -> int:
        """Commands routed across every shard (= clients x commands each)."""
        return sum(shard["submitted"] for shard in self.shards)

    @property
    def total_undecided(self) -> int:
        """Commands some live replica never executed, across shards."""
        return sum(shard["undecided"] for shard in self.shards)

    @property
    def total_violations(self) -> int:
        """Conflict-order violations across every shard group."""
        return sum(shard["violations"] for shard in self.shards)

    @property
    def all_decided(self) -> bool:
        """Whether every submitted command was decided on every live replica."""
        return self.total_undecided == 0

    @property
    def aggregate_throughput(self) -> float:
        """Sum of per-shard throughputs (groups run concurrently when
        deployed, so the aggregate is additive, bounded by the hottest
        shard's makespan)."""
        return sum(shard["throughput_per_second"] for shard in self.shards)

    @property
    def bottleneck_makespan_ms(self) -> float:
        """Virtual time the slowest (hottest) shard needed."""
        return max((shard["makespan_ms"] for shard in self.shards), default=0.0)

    def per_shard_conflict_rates(self) -> Dict[int, float]:
        """Measured conflict rate per shard index."""
        return {shard["shard"]: shard["conflict_rate"] for shard in self.shards}

    def as_dict(self) -> Dict[str, object]:
        """Primitive payload (what the figure sweep and the CLI report)."""
        return {
            "protocol": self.config.protocol,
            "shards": self.shards,
            "total_submitted": self.total_submitted,
            "total_undecided": self.total_undecided,
            "total_violations": self.total_violations,
            "all_decided": self.all_decided,
            "aggregate_throughput": round(self.aggregate_throughput, 6),
            "bottleneck_makespan_ms": round(self.bottleneck_makespan_ms, 6),
        }


def run_sharded(config: ShardedConfig, workers: Workers = 1) -> ShardedResult:
    """Run one sharded experiment: S independent groups over one keyspace.

    The client streams are generated and routed up front; each shard then
    replays its share on its own cluster through the sweep orchestrator, so
    ``workers=N`` runs shard groups in parallel processes with byte-identical
    results to ``workers=1``.
    """
    topology = config.build_topology()
    router = ShardRouter(config.shards)
    per_shard = route_streams(generate_streams(config), router)
    base = DeterministicRandom(config.seed)
    cells = []
    for shard, streams in enumerate(per_shard):
        task = ShardTask(
            shard=shard,
            protocol=config.protocol,
            topology=topology,
            seed=base.fork_cell(("shard", shard)).seed,
            streams=tuple((client_id, tuple(commands))
                          for client_id, commands in streams),
        )
        cells.append(SweepCell(key=("shard", config.protocol, shard), config=task,
                               runner=run_shard_task, collect=None))
    sweep = run_sweep(cells, workers=workers)
    payloads = [outcome.payload for outcome in sweep.outcomes]
    return ShardedResult(config=config, shards=payloads, sweep=sweep)


def run_sharded_payload(config: ShardedConfig) -> Dict[str, object]:
    """Run one sharded experiment in-process and return its primitive payload.

    Top-level so the *figure* sweep can use whole sharded runs as its cells
    (one cell per ``protocol x skew x shard-count`` point): the grid
    parallelizes across worker processes while each cell keeps its shards
    in-process — nested process pools would oversubscribe, and determinism
    does not care which level fans out.
    """
    return run_sharded(config).as_dict()

