"""The protocol table is the one source of "which protocols exist".

Everything user-facing that enumerates protocols must derive from
:data:`repro.harness.protocols.PROTOCOLS`, and both substrates must build the
same replica for the same settings.  Recovery is one switch: every path hands
it to the kernel, never to a constructor, so no protocol option can turn a
failure detector on behind it.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.consensus.quorums import QuorumSystem
from repro.harness import chaos as chaos_harness
from repro.harness.cluster import build_cluster
from repro.harness.experiment import ExperimentConfig
from repro.harness.protocols import PROTOCOLS, build_replica, register_protocol
from repro.kvstore.store import KeyValueStore
from repro.net.replica import ReplicaConfig, ReplicaServer
from repro.runtime.registry import TYPE_IDS
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from tests.conftest import lan_topology

#: The protocols with a recovery path (an ``on_suspect`` hook).
DETECTING = ("caesar", "epaxos", "multipaxos")


def start_tcp_replica(**settings) -> None:
    """Build replica 0 of a 3-node TCP cluster (its peers are never up)."""
    peers = {0: ("127.0.0.1", 0), 1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)}

    async def start_and_stop() -> None:
        server = ReplicaServer(ReplicaConfig(node_id=0, peers=peers, **settings))
        await server.start()
        await server.stop()

    asyncio.run(start_and_stop())


def subcommands() -> dict:
    parser = build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestOneTable:
    def test_table_order_is_the_display_order(self):
        assert list(PROTOCOLS) == ["caesar", "epaxos", "m2paxos", "mencius", "multipaxos"]
        assert api.PROTOCOLS is PROTOCOLS

    def test_every_protocol_flag_takes_its_choices_from_the_table(self):
        seen = 0
        for name, subparser in subcommands().items():
            for action in subparser._actions:
                if action.dest in ("protocol", "protocols"):
                    assert list(action.choices) == list(PROTOCOLS), name
                    seen += 1
        # run, chaos (x2: --protocol and --protocols), serve, loadgen, overload
        assert seen == 6

    def test_a_registered_protocol_becomes_a_cli_choice(self):
        argv = ["run", "--protocol", "primarycopy"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        register_protocol("primarycopy", PROTOCOLS["mencius"].replica_class)
        try:
            assert build_parser().parse_args(argv).protocol == "primarycopy"
        finally:
            del PROTOCOLS["primarycopy"]

    def test_chaos_matrix_defaults_to_the_whole_table(self, monkeypatch, capsys):
        seen = {}

        def fake_matrix(protocols, schedules, base):
            seen["protocols"] = list(protocols)
            return []

        monkeypatch.setattr(chaos_harness, "run_conformance_matrix", fake_matrix)
        assert main(["chaos", "--matrix", "--quick"]) == 0
        assert seen["protocols"] == list(PROTOCOLS)

    def test_unknown_protocol_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown protocol 'raft'.*caesar"):
            build_replica("raft", 0, None, None, None, {}, None, None, False, False)


class TestWireTypeIds:
    """A client and a replica may enter the package through different modules
    and load different protocols; both must number every message alike."""

    #: Prints ``{module.qualname: id}`` for what the process has registered:
    #: the ids its decoder dispatches on and its encoders are compiled with.
    REPORT = ("import json; from repro.runtime.registry import WIRE; "
              "print(json.dumps({f'{c.__module__}.{c.__qualname__}': type_id "
              "for type_id, c in WIRE._by_id.items()}))")

    def registered_after(self, statement: str) -> dict:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", f"{statement}; {self.REPORT}"], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out)

    def test_type_ids_hold_whatever_is_imported_in_any_order(self):
        tables = {entry: self.registered_after(statement) for entry, statement in {
            "a baseline first": "import repro.baselines.multipaxos, repro.core.caesar",
            "the envelope first": "import repro.net.wire, repro.baselines.epaxos",
            "core messages alone": "import repro.core.messages",
            "the CLI": "import repro.cli",
        }.items()}
        # Every report is part of the one table, so any two agree where they overlap ...
        for entry, table in tables.items():
            assert table.items() <= TYPE_IDS.items(), entry
        # ... and each process registered what it imported, not the whole table.
        assert set(tables["core messages alone"]) == {
            name for name in TYPE_IDS if name.startswith("repro.core.messages.")}
        assert "repro.net.wire.Hello" not in tables["a baseline first"]
        assert "repro.baselines.multipaxos.AcceptSlot" not in tables["the envelope first"]


@pytest.fixture
def built(monkeypatch):
    """Record every replica the table builds, with the keyword options it got."""
    log = []
    for name, spec in list(PROTOCOLS.items()):
        def recording(*args, _real=spec.replica_class, **options):
            options.pop("cost_model")
            replica = _real(*args, **options)
            log.append((replica, options))
            return replica

        monkeypatch.setitem(PROTOCOLS, name,
                            dataclasses.replace(spec, replica_class=recording))
    return log


class TestOneRecoverySwitch:
    @pytest.mark.parametrize("recovery", [False, True])
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_sim_chaos_and_tcp_build_the_same_replica(self, protocol, recovery, built,
                                                      monkeypatch):
        """No constructor option on any substrate, the switch on every replica,
        and a started replica runs a detector exactly when recovery is on and
        the protocol has a recovery path."""
        build_cluster(ExperimentConfig(
            protocol=protocol, recovery=recovery, topology=lan_topology(3))).start()

        class Built(Exception):
            pass

        def build_and_start(cluster_config):
            build_cluster(cluster_config).start()
            raise Built

        monkeypatch.setattr(chaos_harness, "build_cluster", build_and_start)
        with pytest.raises(Built):
            chaos_harness.run_chaos(chaos_harness.ChaosConfig(
                protocol=protocol, recovery=recovery))

        start_tcp_replica(protocol=protocol, recovery=recovery)
        assert len(built) == 3 + 5 + 1
        detecting = recovery and protocol in DETECTING
        for replica, options in built:
            assert options == {}
            assert replica.recovery_on is recovery
            assert (replica.failure_detector is not None) is detecting

    def test_protocol_options_leave_the_switch_alone(self, built):
        """An options dict once carried a recovery flag of its own, on by
        default, and silently replaced the switch."""
        build_cluster(ExperimentConfig(
            protocol="caesar", topology=lan_topology(3),
            protocol_options={"wait_condition": False})).start()
        assert [options for _, options in built] == [{"wait_condition": False}] * 3
        assert all(replica.failure_detector is None for replica, _ in built)

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_a_replica_built_without_the_harness_runs_no_detector(self, protocol):
        sim = Simulator(seed=1)
        replica = PROTOCOLS[protocol].replica_class(
            0, sim, Network(sim, lan_topology(3), NetworkConfig()), QuorumSystem.for_cluster(3),
            KeyValueStore())
        replica.start()
        assert replica.failure_detector is None
