"""The protocol table: the one module that knows which protocols exist.

Everything that needs "the protocols" derives it from :data:`PROTOCOLS` —
the CLI's ``--protocol`` choices and the chaos matrix default — and every
replica, on either substrate, is constructed by
:func:`build_replica`: the simulator's ``build_cluster`` and the TCP
``ReplicaServer.start`` both call it, so a baseline cannot end up configured
differently from CAESAR without this module saying so.  The recovery and
history-collection switches are not constructor options: :func:`build_replica`
hands them to the kernel, which runs the failure detector for every protocol
with an ``on_suspect`` hook; CAESAR is the one protocol that collects.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, Mapping, Optional

from repro.consensus.interface import ConsensusReplica
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.store import KeyValueStore
from repro.runtime.admission import admission_policy
from repro.runtime.costs import CostModel


@dataclass(frozen=True)
class Protocol:
    """One row of the protocol table.

    Attributes:
        replica_class: the replica constructor, called as
            ``replica_class(node_id, clock, network, quorums, state_machine,
            cost_model=..., **options)``.
    """

    replica_class: Callable[..., ConsensusReplica]


def _in_module(module: str, name: str) -> Callable[..., ConsensusReplica]:
    """The constructor ``module.name``, imported when the first replica is built.

    A process loads the protocol it runs and no other; what a protocol's
    messages are numbered on the wire does not depend on which are loaded
    (:data:`repro.runtime.registry.TYPE_IDS`).
    """
    def construct(*args, **options) -> ConsensusReplica:
        return getattr(import_module(module), name)(*args, **options)

    return construct


#: Every protocol, in display order (CLI choices, chaos matrix).
PROTOCOLS: Dict[str, Protocol] = {
    "caesar": Protocol(_in_module("repro.core.caesar", "CaesarReplica")),
    "epaxos": Protocol(_in_module("repro.baselines.epaxos", "EPaxosReplica")),
    "m2paxos": Protocol(_in_module("repro.baselines.m2paxos", "M2PaxosReplica")),
    "mencius": Protocol(_in_module("repro.baselines.mencius", "MenciusReplica")),
    "multipaxos": Protocol(_in_module("repro.baselines.multipaxos", "MultiPaxosReplica")),
}


def register_protocol(name: str, replica_class: Callable[..., ConsensusReplica]) -> None:
    """Add a protocol to the table (the extension point for new protocols)."""
    PROTOCOLS[name] = Protocol(replica_class)


def _protocol(name: str) -> Protocol:
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}")
    return PROTOCOLS[name]


def build_replica(protocol: str, node_id: int, clock, network, quorums: QuorumSystem,
                  options: Mapping[str, object],
                  cost_model: Optional[CostModel],
                  admission: Optional[str],
                  recovery: bool,
                  history_gc: bool) -> ConsensusReplica:
    """Construct one replica of ``protocol`` on either substrate.

    Args:
        clock: the substrate's clock (``Simulator`` or ``WallClock``).
        network: the substrate's transport factory (``Network`` or
            ``PeerNetwork``).
        options: protocol-specific constructor options.
        admission: admission-control spec for the submit path (see
            :mod:`repro.runtime.admission`); ``None`` leaves it hook-free.
        recovery: run the failure detector and the recovery it triggers
            (protocols without an ``on_suspect`` hook have neither).
        history_gc: collect the history entries of commands every replica
            has delivered (:mod:`repro.core.collection`; CAESAR only).
    """
    replica = _protocol(protocol).replica_class(
        node_id, clock, network, quorums, KeyValueStore(), cost_model=cost_model,
        **options)
    replica.recovery_on = recovery
    replica.history_gc = history_gc
    if admission is not None:
        replica.admission = admission_policy(admission)
    return replica
