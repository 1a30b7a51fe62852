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
from repro.harness.protocols import build_replica
from repro.runtime.admission import aggregate_admission
from repro.runtime.costs import CostModel
from repro.sim.failures import CrashInjector
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology, ec2_five_sites


@dataclass
class ClusterConfig:
    """Everything needed to build a protocol cluster.

    Attributes:
        protocol: a name in :data:`repro.harness.protocols.PROTOCOLS`.
        topology: latency topology; defaults to the paper's five EC2 sites.
        seed: simulation seed.
        network: jitter configuration.
        cost_model: per-message CPU cost model.
        batching: every replica batches its outgoing messages
            (:mod:`repro.runtime.batching`; the paper's "batching enabled"
            configuration).
        admission: admission-control spec installed on every replica's submit
            path (``"none"``, ``"inflight:K"``, ``"deadline:MS"``; see
            :mod:`repro.runtime.admission`).  ``None`` leaves the submit path
            hook-free.
        recovery: run each replica's failure detector and the recovery it
            triggers (CAESAR's RECOVERY phase, EPaxos' explicit prepare, the
            Multi-Paxos election); M2Paxos and Mencius have neither.
        history_gc: each CAESAR replica forgets the commands every replica
            has delivered, learned from its peers' delivery reports
            (:mod:`repro.core.collection`).  Off by default on the simulator,
            where collection would change the figures' message bytes; TCP
            replicas always collect.
        protocol_options: protocol-specific keyword arguments forwarded to the
            replica constructor (e.g. ``{"wait_condition": False}`` for CAESAR
            or ``{"leader_id": 3}`` for Multi-Paxos).
    """

    protocol: str = "caesar"
    topology: Optional[Topology] = None
    seed: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cost_model: Optional[CostModel] = None
    batching: bool = False
    admission: Optional[str] = None
    recovery: bool = False
    history_gc: bool = False
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

    def check_consistency(self) -> List[tuple]:
        """Cross-check execution logs of all live replicas.

        Returns the list of conflicting-order violations (empty when the run
        satisfies Generalized Consensus consistency).
        """
        return order_violations(self.replicas)

    def total_executed(self) -> int:
        """Total number of command executions across live replicas."""
        return sum(r.commands_executed for r in self.replicas if not r.crashed)

    def admission_snapshot(self) -> Optional[Dict[str, object]]:
        """Aggregated admission counters across all replicas (``None`` if unset)."""
        return aggregate_admission(r.admission.snapshot() for r in self.replicas
                                   if r.admission is not None)


def build_cluster(config: ClusterConfig) -> Cluster:
    """Construct a cluster for the configured protocol on the configured topology."""
    topology = config.topology or ec2_five_sites()
    sim = Simulator(seed=config.seed)
    network = Network(sim, topology, config.network)
    network.batching = config.batching
    quorums = QuorumSystem.for_cluster(topology.size)
    replicas = [build_replica(config.protocol, node_id, sim, network, quorums,
                              config.protocol_options, cost_model=config.cost_model,
                              admission=config.admission, recovery=config.recovery,
                              history_gc=config.history_gc)
                for node_id in range(topology.size)]
    return Cluster(config, sim, network, topology, replicas)
