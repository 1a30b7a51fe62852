"""The protocol table: the one module that knows which protocols exist.

Everything that needs "the protocols" derives it from :data:`PROTOCOLS` —
the CLI's ``--protocol`` choices, ``repro compare``'s rows, the chaos
matrix default — and every replica, on either substrate, is constructed by
:func:`build_replica`: the simulator's ``build_cluster`` and the TCP
``ReplicaServer.start`` both call it, so a baseline cannot end up configured
differently from CAESAR without this module saying so.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, Mapping, Optional

from repro.consensus.interface import ConsensusReplica
from repro.consensus.quorums import QuorumSystem
from repro.core.config import CaesarConfig
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
        recovery_options: how the generic ``recovery`` on/off switch reaches
            that constructor, as ``on -> options``; ``None`` for protocols
            without recovery machinery.
    """

    replica_class: Callable[..., ConsensusReplica]
    recovery_options: Optional[Callable[[bool], Dict[str, object]]] = None


def _recovery_flag(on: bool) -> Dict[str, object]:
    return {"recovery_enabled": on}


def _in_module(module: str, name: str) -> Callable[..., ConsensusReplica]:
    """The constructor ``module.name``, imported when the first replica is built.

    A process loads the protocol it runs and no other; what a protocol's
    messages are numbered on the wire does not depend on which are loaded
    (:data:`repro.runtime.registry.TYPE_IDS`).
    """
    def construct(*args, **options) -> ConsensusReplica:
        return getattr(import_module(module), name)(*args, **options)

    return construct


#: Every protocol, in display order (CLI choices, compare rows, chaos matrix).
PROTOCOLS: Dict[str, Protocol] = {
    "caesar": Protocol(_in_module("repro.core.caesar", "CaesarReplica"),
                       lambda on: {"config": CaesarConfig(recovery_enabled=on)}),
    "epaxos": Protocol(_in_module("repro.baselines.epaxos", "EPaxosReplica"),
                       _recovery_flag),
    "m2paxos": Protocol(_in_module("repro.baselines.m2paxos", "M2PaxosReplica")),
    "mencius": Protocol(_in_module("repro.baselines.mencius", "MenciusReplica")),
    "multipaxos": Protocol(_in_module("repro.baselines.multipaxos", "MultiPaxosReplica"),
                           _recovery_flag),
}


def register_protocol(name: str, replica_class: Callable[..., ConsensusReplica],
                      recovery_options: Optional[Callable[[bool], Dict[str, object]]] = None
                      ) -> None:
    """Add a protocol to the table (the extension point for new protocols)."""
    PROTOCOLS[name] = Protocol(replica_class, recovery_options)


def _protocol(name: str) -> Protocol:
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}")
    return PROTOCOLS[name]


def flags_to_fields(args, *same_name: str, **renamed: str) -> Dict[str, object]:
    """Config keyword arguments for the CLI flags ``args`` actually carries.

    Positional names are argparse dests that set the config field of the same
    name; ``dest="field"`` keywords set a differently named field.  A flag the
    namespace lacks is left out, so the dataclass default applies — every
    ``from_args`` states its defaults once, in the dataclass.
    """
    renamed.update(zip(same_name, same_name))
    return {field_name: getattr(args, flag) for flag, field_name in renamed.items()
            if hasattr(args, flag)}


def constructor_options(protocol: str, recovery: bool,
                        overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    """Translate the generic ``recovery`` setting into constructor options.

    ``overrides`` are explicit constructor options
    (``ExperimentConfig.protocol_options``); they win over the translation.
    """
    translate = _protocol(protocol).recovery_options
    options = translate(recovery) if translate is not None else {}
    options.update(overrides or {})
    return options


def build_replica(protocol: str, node_id: int, clock, network, quorums: QuorumSystem,
                  options: Mapping[str, object],
                  cost_model: Optional[CostModel] = None,
                  admission: Optional[str] = None) -> ConsensusReplica:
    """Construct one replica of ``protocol`` on either substrate.

    Args:
        clock: the substrate's clock (``Simulator`` or ``WallClock``).
        network: the substrate's transport factory (``Network`` or
            ``PeerNetwork``).
        options: protocol-specific constructor options.
        admission: admission-control spec for the submit path (see
            :mod:`repro.runtime.admission`); ``None`` leaves it hook-free.
    """
    replica = _protocol(protocol).replica_class(
        node_id, clock, network, quorums, KeyValueStore(), cost_model=cost_model,
        **options)
    if admission is not None:
        replica.admission = admission_policy(admission)
    return replica
