"""The protocol table is the one source of "which protocols exist".

Everything user-facing that enumerates protocols must derive from
:data:`repro.harness.protocols.PROTOCOLS`, and both substrates must hand the
replica constructor the same options for the same generic settings.
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
from repro.harness import chaos as chaos_harness
from repro.harness.experiment import ExperimentConfig, build_experiment_cluster
from repro.harness.protocols import PROTOCOLS, constructor_options, register_protocol
from repro.net.replica import ReplicaConfig, ReplicaServer
from repro.runtime.registry import TYPE_IDS
from repro.sim.topology import lan_topology


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

    def test_compare_rows_follow_the_table(self, capsys):
        assert main(["compare", "--conflicts", "0", "--clients", "1",
                     "--duration", "300"]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert [cell.strip() for cell in header.split("|")] == ["conflict", *PROTOCOLS]

    def test_chaos_matrix_defaults_to_the_whole_table(self, monkeypatch, capsys):
        seen = {}

        def fake_matrix(protocols, schedules, **kwargs):
            seen["protocols"] = list(protocols)
            return []

        monkeypatch.setattr(chaos_harness, "run_conformance_matrix", fake_matrix)
        assert main(["chaos", "--matrix", "--quick"]) == 0
        assert seen["protocols"] == list(PROTOCOLS)

    def test_unknown_protocol_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown protocol 'raft'.*caesar"):
            constructor_options("raft", recovery=False)


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
def constructor_log(monkeypatch):
    """Record the keyword options every replica constructor receives."""
    log = []
    for name, spec in list(PROTOCOLS.items()):
        def recording(*args, _name=name, _real=spec.replica_class, **options):
            options.pop("cost_model")
            log.append((_name, options))
            return _real(*args, **options)

        monkeypatch.setitem(PROTOCOLS, name,
                            dataclasses.replace(spec, replica_class=recording))
    return log


class TestBothSubstratesBuildTheSameReplica:
    @pytest.mark.parametrize("recovery", [False, True])
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_sim_chaos_and_tcp_pass_identical_constructor_options(
            self, protocol, recovery, constructor_log, monkeypatch):
        expected = constructor_options(protocol, recovery)

        build_experiment_cluster(ExperimentConfig(
            protocol=protocol, recovery=recovery, topology=lan_topology(3)))
        sim_options = [options for _, options in constructor_log]
        assert sim_options == [expected] * 3
        del constructor_log[:]

        class Built(Exception):
            pass

        def capture(cluster_config):
            raise Built(cluster_config.protocol_options)

        monkeypatch.setattr(chaos_harness, "build_cluster", capture)
        with pytest.raises(Built) as built:
            chaos_harness.run_chaos(chaos_harness.ChaosConfig(
                protocol=protocol, recovery=recovery))
        assert built.value.args[0] == expected

        start_tcp_replica(protocol=protocol, recovery=recovery)
        assert constructor_log == [(protocol, expected)]

    def test_explicit_protocol_options_win_over_recovery(self, constructor_log):
        override = {"leader_id": 2, "recovery_enabled": False}
        build_experiment_cluster(ExperimentConfig(
            protocol="multipaxos", recovery=True, topology=lan_topology(3),
            protocol_options=override))
        assert [options for _, options in constructor_log] == [override] * 3
