"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A repetition builds one cluster for one workload from one seed, drives it,
checks its outputs and prints a single JSON object: the end-to-end values,
the correctness gates, the digest of replica 0's execution order and the
per-layer numbers.  With ``--trace`` the spans of ``trace.py`` are installed
first and the span self times are reported as well.

Everything the program under test receives comes from the seed: the
simulator seed (network jitter) and the per-client command generators.

Host-time values are reported at reference speed: :class:`Calibration` times
a fixed loop between slices of the measured call and the repetition's host
times are scaled by how fast the box ran it.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import importlib.util
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from statistics import mean

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; ``BENCHMARK.json`` and the README say why.

    ``rep_seconds`` is the wall time of one full-size untraced repetition on
    the 2-core reference box, set-up included; ``run.py`` divides the run
    length by it to decide how many repetitions a run makes.
    """

    clock: str  # "virtual" (simulator time) or "wall"
    substrate: str  # "sim" or "tcp"
    protocol: str
    conflict_rate: float
    rep_seconds: float
    # simulator workloads
    clients_per_site: int = 0
    warmup_ms: float = 0.0
    duration_ms: float = 0.0
    drain_ms: float = 0.0
    open_loop_rate: float = 0.0  # commands/s per client; 0 = closed loop
    crash_at_ms: float = 0.0  # 0 = no fault
    # TCP workload
    replicas: int = 0
    clients: int = 0
    warmup_commands: int = 0
    timed_commands: int = 0


WORKLOADS = {
    "sim-caesar-c0": Workload(
        clock="virtual", substrate="sim", protocol="caesar", conflict_rate=0.0,
        clients_per_site=10, warmup_ms=1000.0, duration_ms=8000.0, drain_ms=1000.0,
        rep_seconds=2.2),
    "sim-caesar-hot": Workload(
        clock="virtual", substrate="sim", protocol="caesar", conflict_rate=1.0,
        clients_per_site=40, warmup_ms=1000.0, duration_ms=1500.0, drain_ms=3000.0,
        rep_seconds=3.0),
    "sim-epaxos-c30": Workload(
        clock="virtual", substrate="sim", protocol="epaxos", conflict_rate=0.3,
        clients_per_site=10, warmup_ms=1000.0, duration_ms=8000.0, drain_ms=1000.0,
        rep_seconds=2.2),
    "tcp-caesar-c30": Workload(
        clock="wall", substrate="tcp", protocol="caesar", conflict_rate=0.3,
        replicas=3, clients=2, warmup_commands=100, timed_commands=1000,
        rep_seconds=2.4),
    "sim-caesar-crash": Workload(
        clock="virtual", substrate="sim", protocol="caesar", conflict_rate=0.3,
        clients_per_site=4, open_loop_rate=20.0, duration_ms=10000.0, drain_ms=5000.0,
        crash_at_ms=4000.0, rep_seconds=2.2),
}

#: How long a TCP repetition may take before its gate fails instead.
TCP_DEADLINE_S = 120.0
#: The TCP workload's timed budget is driven in this many phases, and a
#: simulator run in this many slices, with a calibration sample between them.
TCP_PHASES = 4
SIM_SLICES = 10
#: The fault run's latency population: commands due this long after the crash.
CRASH_WINDOW_MS = 3000.0


@dataclass
class Outcome:
    """What one driven cluster hands to the metric code, on either substrate."""

    replicas: list  # every replica object, crashed ones included
    network_stats: list  # one NetworkStats per network (1 on sim, N on TCP)
    samples: list  # CommandSample of the latency population
    window_commits: int  # commits inside the throughput window
    window_seconds: float  # length of that window on the workload's clock
    attempted: int  # commands the clients submitted
    completed: int  # of those, how many a client saw complete
    committed: int  # of those, how many every live replica executed
    cpu_seconds: float  # process CPU time of the measured call
    busy_seconds: float  # what the span self times must add up to (see the runners)
    setup_seconds: float
    build_seconds: float
    consistency_seconds: float
    gates: dict
    #: counter-based per-layer metrics only this substrate or workload has
    layers: dict = field(default_factory=dict)


def resident_mb() -> float:
    """Resident set size of this process right now (``ru_maxrss`` is the peak)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


class Calibration:
    """A fixed interpreter workload, timed in slices between slices of the measured call.

    This box slows by 10-45 % for spells of a second to minutes (a neighbour
    on the same core), which moved host time and the TCP workload's latency by
    up to 45 % between runs of unchanged code.  Each repetition therefore times
    this loop at every pause the workload offers - ten times inside a simulator
    run, between the phases of the TCP run - and reports its host times as if
    the box had run the loop at reference speed.  Sampling *inside* the
    measured call matters: one sample after it explained half of the variance
    of a repetition's host time, ten inside it explain four fifths.

    The loop mixes what the program does - hashing into a table larger than
    the caches, heap pushes and pops, small allocations - with the collector
    off, so the heap the workload has built does not matter.  It never touches
    ``src/repro``: a change to the program cannot move it.
    """

    #: CPU seconds per iteration on the reference box when nothing disturbs it.
    REFERENCE_S_PER_ITERATION = 1.32e-6
    SAMPLE_ITERATIONS = 12_000

    def __init__(self) -> None:
        resident = resident_mb()
        self._table = {i: (i, str(i)) for i in range(300_000)}
        #: what the table adds to the process; taken off the reported peak.
        self.table_mb = resident_mb() - resident
        self._x = 12345
        self.iterations = 0
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0

    def sample(self, count: int = 1) -> None:
        """Run and time ``count`` slices of the loop."""
        table, size, x = self._table, len(self._table), self._x
        iterations = count * self.SAMPLE_ITERATIONS
        heap: list = []
        gc.disable()
        try:
            wall_started, cpu_started = time.perf_counter(), time.process_time()
            for i in range(iterations):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                heappush(heap, (x & 1023, i, table[x % size]))
                if i & 1:
                    heappop(heap)
            self.cpu_seconds += time.process_time() - cpu_started
            self.wall_seconds += time.perf_counter() - wall_started
        finally:
            gc.enable()
        self._x = x
        self.iterations += iterations

    @property
    def speed(self) -> float:
        """How fast the box ran during the samples; 1.0 is the reference box."""
        return self.REFERENCE_S_PER_ITERATION * self.iterations / self.cpu_seconds


def consistency_violations(replicas) -> int:
    """Pairwise conflicting-order violations between live replicas' logs."""
    live = [r for r in replicas if not r.crashed]
    return sum(len(first.execution_log.conflicting_order_violations(second.execution_log))
               for i, first in enumerate(live) for second in live[i + 1:])


def replication(replicas, clients) -> tuple:
    """Commands submitted, how many of them every live replica executed, and
    whether the live replicas executed one same set.

    ``ConflictWorkload`` numbers a client's commands ``(client_id, 0..generated-1)``.
    """
    submitted = {(client.workload.client_id, sequence)
                 for client in clients for sequence in range(client.workload.generated)}
    executed = [frozenset(c.command_id for c in r.execution_log)
                for r in replicas if not r.crashed]
    return (len(submitted), len(submitted.intersection(*executed)),
            all(s == executed[0] for s in executed))


# ------------------------------------------------------------------ simulator


def run_sim(spec: Workload, seed: int, scale: float, spawned_at: float,
            calibration: Calibration) -> Outcome:
    """Drive one simulator workload (closed loop, or open loop with a crash)."""
    from repro import api
    from repro.chaos.checker import check_history
    from repro.chaos.history import HistoryTape
    from repro.core.history import CommandStatus
    from repro.harness.experiment import attach_clients, build_experiment_cluster
    from repro.metrics.collector import MetricsCollector
    from repro.sim.failures import ScheduledCrash

    duration_ms = spec.duration_ms * scale
    crash_at_ms = spec.crash_at_ms * scale
    config = api.ExperimentConfig(
        protocol=spec.protocol, conflict_rate=spec.conflict_rate,
        clients_per_site=spec.clients_per_site, open_loop=spec.open_loop_rate > 0,
        arrival_rate_per_client=spec.open_loop_rate, duration_ms=duration_ms,
        warmup_ms=spec.warmup_ms, drain_ms=spec.drain_ms, seed=seed,
        network=api.NetworkConfig(jitter_ms=3.0), recovery=crash_at_ms > 0)

    build_started = time.perf_counter()
    cluster = build_experiment_cluster(config)
    build_seconds = time.perf_counter() - build_started
    metrics = MetricsCollector(warmup_ms=config.warmup_ms)
    pool = attach_clients(cluster, config, metrics)
    tape = None
    if crash_at_ms > 0:
        tape = HistoryTape(cluster.sim)
        for client in pool.clients:
            client.history = tape
        cluster.crash_injector.schedule(
            ScheduledCrash(node_id=cluster.size - 1, crash_at_ms=crash_at_ms))
    setup_seconds = time.time() - spawned_at

    cpu_started, wall_started = time.process_time(), time.perf_counter()
    cluster.start()
    pool.start_all()
    window_end = config.warmup_ms + duration_ms
    for index in range(1, SIM_SLICES + 1):
        # Stopping the clock at a slice boundary changes nothing the simulator does.
        cluster.run(window_end * index / SIM_SLICES - cluster.sim.now)
        calibration.sample()
    pool.stop_all()
    cluster.run(config.drain_ms)
    check_started = time.perf_counter()
    violations = consistency_violations(cluster.replicas)
    consistency_seconds = time.perf_counter() - check_started
    cpu_seconds = time.process_time() - cpu_started - calibration.cpu_seconds
    # Nothing waits in a simulator run, so spans (timed on the wall clock, which
    # is the cheap one to read) are judged against the call's wall time.
    busy_seconds = time.perf_counter() - wall_started - calibration.wall_seconds

    in_window = [s for s in metrics.samples if s.completed_at < window_end]
    completed = pool.total_completed
    commits = cluster.replicas[0].commands_executed
    attempted, committed, same_everywhere = replication(cluster.replicas, pool.clients)
    gates = {"no_order_violations": violations == 0,
             "replicated_everywhere": same_everywhere and committed >= completed}
    layers = {
        "sim.events_per_commit": cluster.sim.steps_executed / commits,
        "sim.messages_per_commit": cluster.network.stats.messages_sent / commits,
        "sim.node_cpu_busy_share": (sum(node.cpu_busy_ms for node in cluster.replicas)
                                    / (cluster.size * cluster.sim.now)),
    }
    if crash_at_ms > 0:
        # Open loop: a command is timed from when it was due, and only the
        # commands due while the cluster was detecting and recovering count.
        window = min(CRASH_WINDOW_MS, window_end - crash_at_ms)
        population = [s for s in metrics.samples
                      if crash_at_ms <= s.completed_at - s.latency_ms < crash_at_ms + window]
        # The cluster as a whole never stops; the stall is what the unluckiest
        # client saw: a command behind one the dead leader left undecided.
        layers["core.recovery_stall_max_ms"] = max(s.latency_ms for s in population)
        gates["history_linearizable"] = check_history(tape).ok
        # Recoveries started need not equal recoveries completed: two nodes may
        # recover the same command and the lower ballot is superseded.  What
        # must hold is that recovery ran and left nothing undecided behind.
        live = [r for r in cluster.replicas if not r.crashed]
        gates["recovery_finished"] = (
            sum(r.stats.recoveries_completed for r in live) > 0
            and all(r.delivery.pending_count() == 0 for r in live)
            and all(entry.status is CommandStatus.STABLE
                    for r in live for entry in r.history.entries()))
    else:
        population = in_window
    return Outcome(replicas=cluster.replicas, network_stats=[cluster.network.stats],
                   samples=population, window_commits=len(in_window),
                   window_seconds=duration_ms / 1000.0, attempted=attempted,
                   completed=completed, committed=committed, cpu_seconds=cpu_seconds,
                   busy_seconds=busy_seconds,
                   setup_seconds=setup_seconds, build_seconds=build_seconds,
                   consistency_seconds=consistency_seconds, gates=gates, layers=layers)


# ------------------------------------------------------------------------ TCP


def run_tcp(spec: Workload, seed: int, scale: float, spawned_at: float,
            calibration: Calibration) -> Outcome:
    """Drive the loopback TCP workload (blocking wrapper)."""
    return asyncio.run(_run_tcp(spec, seed, scale, spawned_at, calibration))


async def _run_tcp(spec: Workload, seed: int, scale: float, spawned_at: float,
                   calibration: Calibration) -> Outcome:
    from repro import api  # noqa: F401  (registers every protocol, as users do)
    from repro.metrics.collector import MetricsCollector
    from repro.net.client import RemoteReplica
    from repro.net.clock import WallClock
    from repro.net.loopback import LoopbackCluster
    from repro.sim.random import DeterministicRandom
    from repro.workload.clients import ClientPool, ClosedLoopClient
    from repro.workload.generator import ConflictWorkload, WorkloadConfig

    loop = asyncio.get_running_loop()
    warmup = max(1, round(spec.warmup_commands * scale))
    phase = max(1, round(spec.timed_commands * scale / TCP_PHASES))
    build_started = time.perf_counter()
    cluster = LoopbackCluster(spec.protocol, replicas=spec.replicas, seed=seed)
    remotes = []
    try:
        await cluster.start()
        servers = [cluster.servers[i] for i in sorted(cluster.servers)]
        # Sends to a peer whose dial has not landed yet are dropped, so the
        # set-up waits for the full mesh before the first command.
        while not all(server.replica.transport.connection(dst).connected
                      for server in servers for dst in cluster.peers
                      if dst != server.config.node_id):
            await asyncio.sleep(0.005)
        build_seconds = time.perf_counter() - build_started

        clock = WallClock(seed=seed, loop=loop)
        metrics = MetricsCollector()
        pool = ClientPool()
        base_rng = DeterministicRandom(seed)
        workload_config = WorkloadConfig(conflict_rate=spec.conflict_rate)
        for client_id in range(spec.clients):
            replica_id = client_id % spec.replicas
            host, port = cluster.peers[replica_id]
            remote = RemoteReplica(replica_id, host, port, client_id=client_id)
            await remote.connect()
            remotes.append(remote)
            workload = ConflictWorkload(client_id=client_id, origin=replica_id,
                                        config=workload_config,
                                        rng=base_rng.fork(f"client-{client_id}"))
            pool.add(ClosedLoopClient(client_id, remote, workload, clock, metrics,
                                      max_commands=0))
        setup_seconds = time.time() - spawned_at

        replicas = [server.replica for server in servers]
        deadline = loop.time() + TCP_DEADLINE_S

        async def drive(commands: int) -> tuple:
            """Every client completes ``commands`` more: their samples, and the seconds taken."""
            first, started = len(metrics.samples), clock.now
            for client in pool.clients:
                client.max_commands += commands
            pool.start_all()
            while (any(client.completed < client.max_commands for client in pool.clients)
                   and loop.time() < deadline):
                await asyncio.sleep(0.02)
            samples = metrics.samples[first:]
            ended = max((sample.completed_at for sample in samples), default=started)
            return samples, (ended - started) / 1000.0

        # The budget is driven in phases; between two phases nothing is in
        # flight, so the calibration sample there delays no command.
        cpu_started = time.process_time()
        await drive(warmup)
        population, window_seconds = [], 0.0
        for _ in range(TCP_PHASES):
            calibration.sample(2)
            samples, seconds = await drive(phase)
            population += samples
            window_seconds += seconds
        calibration.sample(2)
        completed = pool.total_completed
        while (any(r.commands_executed < completed for r in replicas)
               and loop.time() < deadline):
            await asyncio.sleep(0.02)
        check_started = time.perf_counter()
        violations = consistency_violations(replicas)
        consistency_seconds = time.perf_counter() - check_started
        cpu_seconds = time.process_time() - cpu_started - calibration.cpu_seconds

        stats = [server.network.stats for server in servers]
        layers = {
            "net.dropped_frames": sum(s.messages_dropped for s in stats),
            "net.reconnects": sum(server.replica.transport.connection(dst).connects - 1
                                  for server in servers for dst in cluster.peers
                                  if dst != server.config.node_id),
        }
        attempted, committed, same_everywhere = replication(replicas, pool.clients)
        gates = {"no_order_violations": violations == 0,
                 "replicated_everywhere": same_everywhere and committed >= completed,
                 "finished_in_time":
                     completed == spec.clients * (warmup + TCP_PHASES * phase)}
        return Outcome(replicas=replicas, network_stats=stats, samples=population,
                       window_commits=len(population), window_seconds=window_seconds,
                       attempted=attempted, completed=completed, committed=committed,
                       cpu_seconds=cpu_seconds,
                       # The event loop sleeps in the selector between
                       # packets, so only CPU time counts as busy here.
                       busy_seconds=cpu_seconds,
                       setup_seconds=setup_seconds, build_seconds=build_seconds,
                       consistency_seconds=consistency_seconds, gates=gates, layers=layers)
    finally:
        for remote in remotes:
            await remote.close()
        await cluster.stop()


# -------------------------------------------------------------------- metrics


def counter_layers(outcome: Outcome, commits: int, summary_seconds: float) -> dict:
    """Per-layer metrics read from counters the program already keeps."""
    replicas = outcome.replicas
    stats = [r.stats for r in replicas]

    def total(field: str) -> int:
        return sum(getattr(s, field) for s in stats)

    def per_commit(value: float) -> float:
        return value / commits

    decisions = total("fast_decisions") + total("slow_decisions")
    fast_share = total("fast_decisions") / decisions if decisions else 0.0
    caesar = [r for r in replicas if hasattr(r, "wait_manager")]
    waits = sum(r.wait_manager.total_waits for r in caesar)
    wait_ms = sum(r.wait_manager.total_wait_ms for r in caesar)
    pred_sizes = [entry.pred_mask.bit_count() for entry in caesar[0].history.entries()] \
        if caesar else []
    layers = dict.fromkeys(("sim.events_per_commit", "sim.messages_per_commit",
                            "sim.node_cpu_busy_share", "core.recovery_stall_max_ms",
                            "net.dropped_frames", "net.reconnects"), 0.0)
    layers.update(outcome.layers)
    layers.update({
        "runtime.kernel_dispatch_calls_per_commit":
            per_commit(sum(r.messages_handled for r in replicas)),
        "runtime.codec_bytes_per_commit":
            per_commit(sum(s.codec_bytes_sent for s in outcome.network_stats)),
        "runtime.retransmissions_per_commit": per_commit(total("retransmissions_sent")),
        "runtime.catchup_requests": total("catchup_requests"),
        "core.pred_set_size_mean": mean(pred_sizes) if pred_sizes else 0.0,
        "core.wait_ms_mean": wait_ms / waits if waits else 0.0,
        "core.fast_path_share": fast_share if caesar else 0.0,
        "core.retries_per_commit": per_commit(total("retries")),
        "core.nacks_per_commit": per_commit(total("nacks_sent")),
        "core.history_entries_final": len(caesar[0].history) if caesar else 0,
        "core.recoveries_started": total("recoveries_started"),
        "core.recoveries_completed": total("recoveries_completed"),
        "baselines.graph_nodes_visited_per_commit": per_commit(total("graph_nodes_visited")),
        "baselines.fast_path_share": 0.0 if caesar else fast_share,
        "consensus.consistency_check_s": outcome.consistency_seconds,
        "kvstore.apply_calls_per_commit":
            per_commit(sum(r.state_machine.applied_count for r in replicas)),
        "workload.unanswered_commands": outcome.attempted - outcome.completed,
        "metrics.summary_s": summary_seconds,
        "harness.build_cluster_s": outcome.build_seconds,
    })
    return layers


#: per-layer self-time metric -> span-name prefix it sums.
SELF_TIME_SPANS = {
    "sim.loop_self_us_per_commit": "sim.loop",
    "sim.network_self_us_per_commit": "sim.network.",
    "sim.node_receive_self_us_per_commit": "sim.node_receive",
    "runtime.kernel_self_us_per_commit": "runtime.kernel.",
    "runtime.transport_self_us_per_commit": "runtime.transport.",
    "runtime.codec_encode_us_per_commit": "runtime.codec_encode",
    "runtime.codec_decode_us_per_commit": "runtime.codec_decode",
    "core.handler_self_us_per_commit": "core.handler.",
    "core.history_self_us_per_commit": "core.history.",
    "core.predecessors_self_us_per_commit": "core.predecessors.",
    "core.wait_self_us_per_commit": "core.wait.",
    "core.delivery_self_us_per_commit": "core.delivery.",
    "baselines.handler_self_us_per_commit": "baselines.handler.",
    "baselines.execution_self_us_per_commit": "baselines.execution.",
    "consensus.submit_execute_self_us_per_commit": "consensus.",
    "consensus.execlog_append_self_us_per_commit": "consensus.execlog_append",
    "kvstore.apply_self_us_per_commit": "kvstore.apply",
    "workload.generate_self_us_per_commit": "workload.generate",
    "workload.client_self_us_per_commit": "workload.client.",
    "metrics.record_self_us_per_commit": "metrics.record",
    "net.framing_self_us_per_commit": "net.framing.",
    "net.transport_send_self_us_per_commit": "net.transport_send.",
    "net.replica_dispatch_self_us_per_commit": "net.replica.",
    "net.client_self_us_per_commit": "net.client.",
}


def span_layers(tracer, outcome: Outcome, commits: int) -> dict:
    """Per-layer metrics that only the traced repetition can give."""
    layers = {metric: tracer.self_us(prefix) / commits
              for metric, prefix in SELF_TIME_SPANS.items()}
    # ``consensus.`` also matched the two spans that have metrics of their own.
    layers["consensus.submit_execute_self_us_per_commit"] -= (
        layers["consensus.execlog_append_self_us_per_commit"]
        + tracer.self_us("consensus.consistency_check") / commits)
    busy_us = outcome.busy_seconds * 1e6
    unattributed_us = max(busy_us - tracer.self_us(""), 0.0)
    reads = tracer.calls.get("net.framing.feed", 0)
    frames = tracer.counts.get("net.framing.feed.yielded", 0)
    evaluations = tracer.call_count("core.wait.evaluate")
    parked = sum(r.wait_manager.total_waits for r in outcome.replicas
                 if hasattr(r, "wait_manager"))
    layers.update({
        "core.history_update_calls_per_commit":
            tracer.call_count("core.history.update") / commits,
        "core.wait_evaluate_calls_per_commit": evaluations / commits,
        "core.wait_parked_share": parked / evaluations if evaluations else 0.0,
        "net.frames_per_commit": frames / commits,
        "net.bytes_per_commit": tracer.counts.get("net.framing.bytes_fed", 0) / commits,
        # A read that completes no frame still counts as a read.
        "net.frames_per_read": frames / (reads - frames) if reads > frames else 0.0,
        "net.asyncio_other_us_per_commit":
            unattributed_us / commits if reads else 0.0,
        "harness.unattributed_share": unattributed_us / busy_us,
    })
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() of the parent when it started this interpreter")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    if not (SRC_DIR / "repro" / "api.py").is_file():
        print(f"bench: {SRC_DIR}/repro is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    spec = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from repro.consensus.interface import ExecutionLog

        # Loaded by path: the file shares its name with a stdlib module.
        module_spec = importlib.util.spec_from_file_location("bench_trace",
                                                             BENCH_DIR / "trace.py")
        bench_trace = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(bench_trace)
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer, spec.substrate, spec.protocol)
        tracer.patch(ExecutionLog, "conflicting_order_violations",
                     "consensus.consistency_check")

    # Building the calibration table is the benchmark's cost, not the
    # program's: its time is kept out of set-up and its size out of the peak.
    build_started = time.time()
    calibration = Calibration()
    spawned_at += time.time() - build_started
    runner = run_sim if spec.substrate == "sim" else run_tcp
    outcome = runner(spec, args.seed, args.scale, spawned_at, calibration)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                   - calibration.table_mb)

    commits = outcome.replicas[0].commands_executed
    if not outcome.samples:
        print("bench: no command completed inside the measured window", file=sys.stderr)
        return 1
    raw_us_per_commit = outcome.cpu_seconds * 1e6 / commits
    # Every host-time value is reported at reference speed; on the wall clock
    # that includes the workload's own latencies and throughput.
    speed = calibration.speed
    clock_speed = speed if spec.clock == "wall" else 1.0
    from repro.metrics.stats import percentile

    summary_started = time.perf_counter()
    latencies = [sample.latency_ms for sample in outcome.samples]
    p50, p95, p99 = (percentile(latencies, f) for f in (0.5, 0.95, 0.99))
    summary_seconds = time.perf_counter() - summary_started

    layers = counter_layers(outcome, commits, summary_seconds)
    layers.update({"metrics.commit_latency_p99_ms": p99,
                   "harness.host_raw_us_per_commit": raw_us_per_commit,
                   "harness.calibration_s": calibration.cpu_seconds})
    if tracer is not None:
        layers.update(span_layers(tracer, outcome, commits))
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.jsonl")

    order = outcome.replicas[0].execution_log
    digest = hashlib.sha256(
        ";".join(f"{c.command_id[0]}.{c.command_id[1]}" for c in order).encode()).hexdigest()
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced": tracer is not None,
        "end_to_end": {
            "setup_s": outcome.setup_seconds * speed,
            "host_us_per_commit": raw_us_per_commit * speed,
            "throughput_cps": outcome.window_commits / outcome.window_seconds / clock_speed,
            "commit_latency_p50_ms": p50 * clock_speed,
            "commit_latency_p95_ms": p95 * clock_speed,
            "committed_share": outcome.committed / outcome.attempted,
            "peak_rss_mb": peak_rss_mb,
        },
        "latency_samples": len(latencies), "commits": commits,
        "attempted": outcome.attempted, "failed": outcome.attempted - outcome.committed,
        "cpu_seconds": outcome.cpu_seconds, "gates": outcome.gates,
        "exec_digest": digest, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
