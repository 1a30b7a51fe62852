"""Cluster construction: wire a protocol's replicas onto the simulated substrate.

A :class:`Cluster` bundles the simulator, network, topology and one replica
per site for a chosen protocol.  The same builder serves the tests, the
examples and every benchmark, so all experiments construct their systems in
exactly one way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.consensus.interface import ConsensusReplica, order_violations
from repro.consensus.quorums import QuorumSystem
from repro.core.delivery import HistoryCompactor
from repro.harness.protocols import build_replica
from repro.runtime.admission import aggregate_admission
from repro.runtime.batching import BatchingConfig
from repro.runtime.costs import CostModel
from repro.sim.failures import CrashInjector
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology, ec2_five_sites

#: Executed events between two checks of :meth:`Cluster.run_until_executed`'s
#: completion predicate; up to this many minus one extra events may run.
EXECUTED_CHECK_EVERY = 32


@dataclass
class ClusterConfig:
    """Everything needed to build a protocol cluster.

    Attributes:
        protocol: a name in :data:`repro.harness.protocols.PROTOCOLS`.
        topology: latency topology; defaults to the paper's five EC2 sites.
        seed: simulation seed.
        network: jitter configuration.
        cost_model: per-message CPU cost model.
        batching: when set, every replica batches its outgoing messages with
            this policy (the paper's "batching enabled" configuration).
        admission: admission-control spec installed on every replica's submit
            path (``"none"``, ``"inflight:K"``, ``"deadline:MS"``; see
            :mod:`repro.runtime.admission`).  ``None`` leaves the submit path
            hook-free.
        history_gc_ms: when set, run a cluster-level
            :class:`~repro.core.delivery.HistoryCompactor` every this many
            virtual ms, removing history entries for commands delivered by
            every replica.  Off by default: collection changes subsequent
            predecessor sets (and therefore message bytes), so it is only for
            long-running load studies, never figure reproduction.
        protocol_options: protocol-specific keyword arguments forwarded to the
            replica constructor (e.g. ``{"config": CaesarConfig(...)}`` or
            ``{"leader_id": 3}`` for Multi-Paxos).
    """

    protocol: str = "caesar"
    topology: Optional[Topology] = None
    seed: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cost_model: Optional[CostModel] = None
    batching: Optional[BatchingConfig] = None
    admission: Optional[str] = None
    history_gc_ms: Optional[float] = None
    protocol_options: Dict[str, object] = field(default_factory=dict)


class Cluster:
    """A running set of replicas of one protocol plus the simulation substrate."""

    def __init__(self, config: ClusterConfig, sim: Simulator, network: Network,
                 topology: Topology, replicas: List[ConsensusReplica]) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        self.topology = topology
        self.replicas = replicas
        self.crash_injector = CrashInjector(sim, {r.node_id: r for r in replicas})
        #: cluster-level history garbage collector (``None`` unless the config
        #: sets ``history_gc_ms``); built and armed by :func:`build_cluster`.
        self.compactor = None
        #: total command executions across all replicas (including any a
        #: replica performed before crashing); maintained in O(1) via the
        #: replicas' execution listeners so completion predicates do not have
        #: to rescan every replica's executed set after every event.
        self.executions = 0
        for replica in replicas:
            replica.execution_listener = self._count_execution

    def _count_execution(self) -> None:
        self.executions += 1

    @property
    def size(self) -> int:
        """Number of replicas."""
        return len(self.replicas)

    def replica(self, node_id: int) -> ConsensusReplica:
        """Replica hosted at node index ``node_id``."""
        return self.replicas[node_id]

    def replica_at(self, site: str) -> ConsensusReplica:
        """The replica hosted at the named site."""
        return self.replicas[self.topology.index_of(site)]

    def start(self) -> None:
        """Start per-replica background machinery (failure detectors etc.)."""
        for replica in self.replicas:
            replica.start()

    def run(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms`` of virtual time."""
        self.sim.run(until=self.sim.now + duration_ms)

    def all_executed(self, command_ids) -> bool:
        """Whether every live replica has executed every given command."""
        for replica in self.replicas:
            if replica.crashed:
                continue
            for command_id in command_ids:
                if not replica.has_executed(command_id):
                    return False
        return True

    def run_until_executed(self, command_ids, deadline_ms: Optional[float] = None) -> bool:
        """Run until every live replica has executed every given command.

        Uses the O(1) execution counter as a cheap gate in front of the exact
        (per-replica, per-command) membership check, and evaluates the
        predicate every :data:`EXECUTED_CHECK_EVERY` events rather than after
        every event, so the hot loop never pays the full rescan.

        Args:
            command_ids: commands that must be executed everywhere.
            deadline_ms: optional bound, relative to the current virtual time.

        Returns:
            ``True`` when all commands executed everywhere, ``False`` on
            queue drain or deadline expiry.
        """
        ids = list(command_ids)
        need = len(set(ids))

        def executed_everywhere() -> bool:
            live = sum(1 for r in self.replicas if not r.crashed)
            if self.executions < need * live:
                return False
            return self.all_executed(ids)

        deadline = None if deadline_ms is None else self.sim.now + deadline_ms
        return self.sim.run_until(executed_everywhere, deadline=deadline,
                                  check_every=EXECUTED_CHECK_EVERY)

    def check_consistency(self) -> List[tuple]:
        """Cross-check execution logs of all live replicas.

        Returns the list of conflicting-order violations (empty when the run
        satisfies Generalized Consensus consistency).
        """
        return order_violations(self.replicas)

    def total_executed(self) -> int:
        """Total number of command executions across live replicas."""
        return sum(r.commands_executed for r in self.replicas if not r.crashed)

    def admission_snapshot(self):
        """Aggregated admission counters across all replicas (``None`` if unset)."""
        return aggregate_admission(r.admission for r in self.replicas)


def build_cluster(config: Optional[ClusterConfig] = None) -> Cluster:
    """Construct a cluster for the configured protocol on the configured topology."""
    config = config or ClusterConfig()
    topology = config.topology or ec2_five_sites()
    sim = Simulator(seed=config.seed)
    network = Network(sim, topology, config.network)
    quorums = QuorumSystem.for_cluster(topology.size)
    replicas = [build_replica(config.protocol, node_id, sim, network, quorums,
                              config.protocol_options, cost_model=config.cost_model,
                              admission=config.admission)
                for node_id in range(topology.size)]
    if config.batching is not None:
        for replica in replicas:
            replica.enable_batching(config.batching)
    cluster = Cluster(config, sim, network, topology, replicas)
    if config.history_gc_ms is not None:
        # The compactor is a cluster-level oracle (it needs every replica's
        # delivered_order), so its timer lives on the simulator rather than on
        # any one replica — a replica crash must not stop collection.
        cluster.compactor = HistoryCompactor(
            replicas, lambda delay, callback: sim.schedule(delay, callback),
            interval_ms=config.history_gc_ms)
        cluster.compactor.start()
    return cluster
