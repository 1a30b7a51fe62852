"""The chaos conformance driver.

One :func:`run_chaos` call is a complete adversarial experiment: build a
cluster, drive it with history-taped closed-loop clients, unleash a nemesis
schedule, heal, probe for progress, and judge the taped client history with
the per-key linearizability checker.  The verdict combines three oracles:

* **linearizability** — the client-observable history must be linearizable
  against the key-value store's sequential spec (pending operations may take
  effect late or never);
* **internal consistency** — every checker of :mod:`repro.core.invariants`:
  live replicas' execution logs must agree on the order of conflicting
  commands (the Generalized Consensus invariant the repository already
  checks elsewhere), and each CAESAR replica must also hold the paper's
  Agreement and graph invariants, execute conflicting commands in timestamp
  order, sit on no stable command that is deliverable (a lost wake-up in
  delivery) and hold no delivered command that lists an undelivered
  predecessor;
* **progress after heal** — once the fabric is healed, fresh probe commands
  submitted at every healthy replica must complete within a deadline.

:func:`run_conformance_matrix` runs the cross product of protocols and named
schedules and is what ``repro chaos --matrix`` (and the CI chaos-smoke job)
executes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.chaos.checker import LinearizabilityReport, check_history
from repro.chaos.history import HistoryTape, TapedClientStats
from repro.chaos.nemesis import Nemesis, NemesisPlan, build_schedule
from repro.consensus.command import Command
from repro.core.invariants import check_all
from repro.harness.cluster import ClusterConfig, build_cluster
from repro.harness.experiment import count_decisions
from repro.metrics.collector import MetricsCollector
from repro.sim.network import NetworkConfig
from repro.workload.clients import build_pool
from repro.workload.generator import WorkloadConfig, check_load

#: Client ids from this value upwards are progress probes, so their command
#: ids can never collide with the workload clients'.
PROBE_CLIENT_BASE = 10_000

#: Fresh-key probe commands submitted per healthy replica after the heal.
PROBE_COMMANDS_PER_SITE = 2

#: Virtual-time budget for every probe to complete.
PROBE_DEADLINE_MS = 60000.0

#: Closed-loop client give-up time; an abandoned command stays *pending* on
#: the tape.
RECONNECT_TIMEOUT_MS = 1500.0


@dataclass
class ChaosConfig:
    """Parameters of one chaos experiment.

    Attributes:
        protocol: protocol under test.
        schedule: named nemesis schedule (see
            :data:`repro.chaos.nemesis.NEMESIS_SCHEDULES`); ignored when
            ``plan`` is given.
        plan: explicit fault schedule overriding ``schedule``.
        seed: simulation seed (the whole run replays from it).
        clients_per_site: history-taped closed-loop clients per replica.
        conflict_rate: fraction of commands on the shared key pool (high
            contention makes the linearizability check strong).
        fault_at_ms: when the named schedule's faults begin.
        fault_hold_ms: how long until the named schedule has fully healed.
        settle_ms: extra virtual time after the heal before the workload
            stops and the progress probe starts.
        recovery: run failure detectors / recovery machinery where the
            protocol supports it.
    """

    protocol: str = "caesar"
    schedule: str = "minority-partition"
    plan: Optional[NemesisPlan] = None
    seed: int = 1
    clients_per_site: int = 2
    conflict_rate: float = 0.5
    fault_at_ms: float = 1000.0
    fault_hold_ms: float = 2000.0
    settle_ms: float = 1500.0
    recovery: bool = False

    def __post_init__(self) -> None:
        check_load(self.clients_per_site, self.conflict_rate)


@dataclass
class ChaosResult:
    """Everything one chaos run measured and concluded."""

    config: ChaosConfig
    plan: NemesisPlan
    progress: bool
    probes_completed: int
    probes_submitted: int
    report: LinearizabilityReport
    internal_violations: List[str]
    client_stats: TapedClientStats
    fast_decisions: int
    slow_decisions: int
    recoveries: int
    fault_stats: Dict[str, int]
    nemesis_log: List[tuple]
    events_executed: int

    @property
    def linearizable(self) -> bool:
        """Whether the taped client history passed the checker."""
        return self.report.ok

    @property
    def ok(self) -> bool:
        """The conformance verdict: linearizable, internally consistent, live."""
        return self.linearizable and not self.internal_violations and self.progress

    def verdict(self) -> str:
        """Short human-readable verdict."""
        if self.ok:
            return "PASS"
        reasons = []
        if not self.report.ok:
            reasons.append("non-linearizable" if self.report.violations else "inconclusive")
        if self.internal_violations:
            reasons.append("internal-divergence")
        if not self.progress:
            reasons.append("no-progress")
        return "FAIL(" + ",".join(reasons) + ")"


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Run one protocol under one nemesis schedule and judge the outcome."""
    cluster_config = ClusterConfig(
        protocol=config.protocol, seed=config.seed,
        # Mild jitter, like the figure experiments, on the five EC2 sites.
        network=NetworkConfig(jitter_ms=2.0), recovery=config.recovery)
    cluster = build_cluster(cluster_config)
    sim = cluster.sim
    tape = HistoryTape(sim)
    plan = config.plan or build_schedule(config.schedule, cluster.size,
                                         config.fault_at_ms, config.fault_hold_ms)
    nemesis = Nemesis(cluster, plan)

    # The label keeps the streams the golden file's bytes were recorded on.
    pool = build_pool(
        [replica for replica in cluster.replicas for _ in range(config.clients_per_site)],
        WorkloadConfig(conflict_rate=config.conflict_rate),
        sim, MetricsCollector(), label="chaos-client", failover=cluster.replicas,
        reconnect_timeout_ms=RECONNECT_TIMEOUT_MS, history=tape)

    cluster.start()
    pool.start_all()
    workload_until = max(plan.quiesced_at_ms,
                         config.fault_at_ms + config.fault_hold_ms) + config.settle_ms
    cluster.run(workload_until - sim.now)
    pool.stop_all()
    nemesis.ensure_quiesced()

    # ------------------------------------------------------- progress probe
    dead = set(nemesis.crashed_forever)
    outstanding = {"count": 0}
    probes_submitted = 0
    for replica in cluster.replicas:
        if replica.crashed or replica.node_id in dead:
            continue
        probe_client = PROBE_CLIENT_BASE + replica.node_id
        for i in range(PROBE_COMMANDS_PER_SITE):
            key = f"probe-{replica.node_id}-{i}"
            command = Command(command_id=(probe_client, i), key=key, operation="put",
                              value=f"probe{replica.node_id}.{i}", origin=replica.node_id)
            taped = tape.invoke(probe_client, key, "put", command.value)
            outstanding["count"] += 1
            probes_submitted += 1

            def on_probe(result, taped=taped) -> None:
                tape.respond(taped, result.value)
                outstanding["count"] -= 1

            replica.submit(command, callback=on_probe)
    progress = sim.run_until(lambda: outstanding["count"] == 0,
                             deadline=sim.now + PROBE_DEADLINE_MS,
                             check_every=16)
    probes_completed = probes_submitted - outstanding["count"]

    # ------------------------------------------------------------- verdicts
    report = check_history(tape)
    internal = check_all(cluster.replicas)

    fast, slow = count_decisions(cluster.replicas)
    recoveries = sum(replica.stats.recoveries + replica.stats.recoveries_completed
                     + replica.stats.elections for replica in cluster.replicas)

    fault_stats = {name: value for name, value in vars(nemesis.faults.stats).items()
                   if isinstance(value, int) and value}
    return ChaosResult(
        config=config, plan=plan, progress=progress,
        probes_completed=probes_completed, probes_submitted=probes_submitted,
        report=report, internal_violations=internal,
        client_stats=TapedClientStats.of(tape), fast_decisions=fast,
        slow_decisions=slow, recoveries=recoveries, fault_stats=fault_stats,
        nemesis_log=list(nemesis.log), events_executed=sim.steps_executed)


def run_conformance_matrix(protocols: Sequence[str], schedules: Sequence[str],
                           base: ChaosConfig) -> List[ChaosResult]:
    """Run every protocol under every named schedule (the conformance matrix).

    Each cell is ``base`` with its protocol and schedule; every cell runs
    with the same seed, so the whole matrix replays deterministically.
    """
    return [run_chaos(replace(base, protocol=protocol, schedule=schedule))
            for protocol in protocols for schedule in schedules]


def format_result(result: ChaosResult) -> str:
    """Render one ChaosResult in full detail."""
    lines = [result.plan.describe(), ""]
    lines.append("nemesis log:")
    lines.extend(f"  t={when:>7.0f}ms  {what}" for when, what in result.nemesis_log)
    stats = result.client_stats
    lines.append("")
    lines.append(f"client operations:  {stats.total} taped, {stats.completed} completed, "
                 f"{stats.pending} pending, {stats.keys} keys")
    lines.append(f"decisions:          {result.fast_decisions} fast, "
                 f"{result.slow_decisions} slow, {result.recoveries} recoveries")
    if result.fault_stats:
        lines.append("fault plane:        "
                     + ", ".join(f"{k}={v}" for k, v in sorted(result.fault_stats.items())))
    lines.append(f"progress after heal: {result.probes_completed}/{result.probes_submitted}"
                 f" probes completed")
    lines.append(f"linearizability:    {result.report.describe()}")
    if result.internal_violations:
        lines.append(f"internal divergence: {len(result.internal_violations)} violations")
    lines.append("")
    lines.append(f"verdict: {result.verdict()}")
    return "\n".join(lines)


def format_matrix(results: Sequence[ChaosResult]) -> str:
    """Render matrix results as a protocols x schedules verdict table."""
    protocols = list(dict.fromkeys(r.config.protocol for r in results))
    schedules = list(dict.fromkeys(r.plan.name for r in results))
    by_cell = {(r.config.protocol, r.plan.name): r for r in results}
    width = max((len(s) for s in schedules), default=8) + 2
    header = "protocol".ljust(12) + "".join(s.rjust(width) for s in schedules)
    lines = [header, "-" * len(header)]
    for protocol in protocols:
        cells = []
        for schedule in schedules:
            result = by_cell.get((protocol, schedule))
            cells.append(("-" if result is None else result.verdict()).rjust(width))
        lines.append(protocol.ljust(12) + "".join(cells))
    failed = [r for r in results if not r.ok]
    lines.append("")
    lines.append(f"{len(results) - len(failed)}/{len(results)} cells passed")
    for result in failed:
        lines.append(f"  FAIL {result.config.protocol} x {result.plan.name}: "
                     f"{result.verdict()} "
                     f"(probes {result.probes_completed}/{result.probes_submitted}; "
                     f"{result.report.describe()})")
    return "\n".join(lines)
