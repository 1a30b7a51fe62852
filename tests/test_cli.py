"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest

import repro
from repro.cli import build_config, build_parser, main
from repro.consensus.quorums import QuorumSystem
from repro.harness.chaos import ChaosConfig
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import FIGURES
from repro.harness.overload import OverloadConfig
from repro.harness.protocols import PROTOCOLS, build_replica
from repro.net.client import LoadgenConfig
from repro.net.cluster import ServeConfig
from repro.net.replica import ReplicaConfig
from repro.runtime.costs import CostModel
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from repro.workload.generator import WorkloadConfig
from tests.conftest import lan_topology

SURFACE_FILE = pathlib.Path(__file__).parent / "data" / "cli_parser_surface.json"
CONFIGS_FILE = pathlib.Path(__file__).parent / "data" / "cli_configs.json"

#: The committed figure tables and BENCH records.
RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

#: Every config a CLI flag, a figure grid or the benchmark can fill in, and
#: the two a user reaches through them.
CONFIGS = (ExperimentConfig, ClusterConfig, ChaosConfig, ServeConfig, ReplicaConfig,
           LoadgenConfig, OverloadConfig, NetworkConfig, WorkloadConfig, CostModel)

#: ``sweep``'s parser surface at the parent of the commit that folded it into
#: ``figure`` (``--out`` defaulted to ``benchmarks/results`` there).
PARENT_SWEEP_FLAGS = {"--cells", "--help", "-h", "--list-cells", "--out", "--quick",
                      "--serial", "--store", "--workers"}


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand, the sorted ``[option strings, dest, default]`` triples."""
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    surface = {}
    for name, sub in subparsers.choices.items():
        triples = []
        for action in sub._actions:
            default = action.default
            if isinstance(default, pathlib.PurePath):
                default = str(default)
            triples.append([sorted(action.option_strings), action.dest, default])
        surface[name] = sorted(triples, key=lambda triple: (triple[0], triple[1]))
    return surface


def config_surface() -> dict:
    """Per config class, its ``[field, default]`` pairs in declaration order.

    A default is written as its ``repr`` (a factory's is that of what it
    builds); a field the caller must always set reads ``"<required>"``.
    """
    surface = {}
    for config in CONFIGS:
        pairs = []
        for spec in dataclasses.fields(config):
            if spec.default is not dataclasses.MISSING:
                default = repr(spec.default)
            elif spec.default_factory is not dataclasses.MISSING:
                default = repr(spec.default_factory())
            else:
                default = "<required>"
            pairs.append([spec.name, default])
        surface[config.__name__] = pairs
    return surface


def constructor_surface() -> dict:
    """Per protocol of the table, its replica constructor's ``[parameter,
    default]`` pairs, so a per-protocol knob shows up as a reviewed diff."""
    surface = {}
    for name in PROTOCOLS:
        sim = Simulator(seed=1)
        replica = build_replica(name, 0, sim, Network(sim, lan_topology(3), NetworkConfig()),
                                QuorumSystem.for_cluster(3), {}, cost_model=None,
                                admission=None, recovery=False, history_gc=False)
        surface[f"protocol {name}"] = [
            [p.name, "<required>" if p.default is p.empty else repr(p.default)]
            for p in inspect.signature(type(replica)).parameters.values()]
    return surface


def surfaces() -> dict:
    """Everything ``tests/data/cli_parser_surface.json`` pins."""
    return parser_surface(build_parser()) | config_surface() | constructor_surface()


#: Command lines whose built configs ``tests/data/cli_configs.json`` pins:
#: each subcommand that builds a config, at its defaults and with the flags
#: that set a field through a conversion or a subcommand rule.
CONFIG_ARGVS = [
    ["run"],
    ["run", "--protocol", "epaxos", "--seed", "9", "--clients", "4", "--conflicts", "30",
     "--duration", "3000", "--throughput", "--batching"],
    ["run", "--duration", "1000", "--admission", "inflight:8", "--history-gc"],
    ["chaos"],
    ["chaos", "--quick", "--protocol", "epaxos", "--nemesis", "clock-skew", "--seed", "3"],
    ["chaos", "--quick", "--fault-at", "700", "--recovery", "--clients", "3",
     "--conflicts", "20"],
    ["chaos", "--matrix", "--quick", "--seed", "7", "--protocols", "caesar", "mencius",
     "--schedules", "minority-partition", "clock-skew"],
    ["chaos", "--matrix", "--hold", "1500", "--recovery"],
    ["chaos", "--random", "2", "--quick", "--seed", "5", "--include-lossy"],
    ["serve"],
    ["serve", "--replicas", "5", "--seed", "4", "--recovery", "--admission", "none",
     "--host", "0.0.0.0"],
    ["serve", "--peer", "0=127.0.0.1:7000", "--peer", "1=127.0.0.1:7001",
     "--peer", "2=127.0.0.1:7002"],
    ["serve", "--node-id", "1", "--admission", "deadline:200", "--peer", "0=10.0.0.1:7000",
     "--peer", "1=10.0.0.2:7000"],
    ["loadgen", "--launch", "3", "--clients", "3", "--commands", "5", "--seed", "4"],
    ["loadgen", "--endpoint", "0=127.0.0.1:7000", "--endpoint", "1=127.0.0.1:7001",
     "--protocol", "epaxos", "--open-loop", "--rate", "20", "--duration", "1500",
     "--warmup-ms", "100", "--conflicts", "100", "--clients", "2", "--seed", "7",
     "--admission", "inflight:4", "--timeout", "30"],
    ["overload"],
    ["overload", "--offered", "120", "--duration", "500", "--warmup-ms", "100",
     "--clients", "2", "--json"],
    ["overload", "--protocol", "m2paxos", "--offered", "100", "200", "--substrate", "tcp",
     "--admission", "deadline:200", "--history-gc", "--workers", "2", "--conflicts", "10",
     "--replicas", "5", "--seed", "3"],
]


def field_record(value):
    """A built config as JSON: a dataclass is its class name and its fields."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"<class>": type(value).__name__,
                **{spec.name: field_record(getattr(value, spec.name))
                   for spec in dataclasses.fields(value)}}
    if isinstance(value, dict):
        return {str(key): field_record(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [field_record(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class _Stop(Exception):
    """Ends a command at the entry point it would run."""


def built_configs(argv) -> list:
    """What ``repro <argv>`` hands its entry points, as field records.

    Every entry point a subcommand calls is replaced by a recorder, so
    nothing runs and no cluster is built: the recorder of the call that
    would run the work ends the command.  A launched cluster answers with a
    fixed peer map.
    """
    built = []

    def stop(config):
        built.append(field_record(config))
        raise _Stop

    def matrix(protocols, schedules, base):
        cell = field_record(base)
        del cell["protocol"], cell["schedule"]
        built.append({"protocols": list(protocols), "schedules": list(schedules),
                      "cell": cell})
        raise _Stop

    class Launched:
        def __init__(self, config):
            self.peers = {node: ("127.0.0.1", 7000 + node) for node in range(config.replicas)}

        def stop(self):
            pass

    def serve(config):
        if argv[0] == "serve":
            stop(config)
        built.append(field_record(config))
        return Launched(config)

    patches = {"repro.cli.run_experiment": stop,
               "repro.harness.chaos.run_chaos": stop,
               "repro.harness.chaos.run_conformance_matrix": matrix,
               "repro.net.cluster.serve_cluster": serve,
               "repro.net.replica.serve_replica": stop,
               "repro.net.client.run_loadgen": stop,
               "repro.harness.overload.run_overload_sweep": stop}
    with contextlib.ExitStack() as stack:
        for target, recorder in patches.items():
            stack.enter_context(mock.patch(target, recorder))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        try:
            main(argv)
        except _Stop:
            pass
    return built


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "caesar"
        assert args.conflicts == 0.0
        assert args.clients == 10
        assert not args.batching

    def test_run_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "raft"])

    def test_figure_rejects_unknown_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])

    def test_every_figure_has_exactly_one_committed_table_and_record(self):
        stems = {figure.stem for figure in FIGURES.values()}
        assert len(stems) == len(FIGURES)
        # The one record that is not a figure sweep (benchmarks/
        # test_protocol_microbench.py checks it, and run as a script writes
        # it through the same writer).
        stems.add("micro_message_footprint")
        assert {path.stem for path in RESULTS_DIR.glob("*.txt")} == stems
        assert {path.stem for path in RESULTS_DIR.glob("BENCH_*.json")} == {
            f"BENCH_{stem}" for stem in stems}

    @pytest.mark.parametrize("key", FIGURES)
    def test_figure_row_quick_overrides_exactly_its_grid_keywords(self, key):
        # The grid takes the row's seed and then only keywords, and --quick
        # scales every one of them: a keyword no --quick run overrides is a
        # knob no product path sets.
        parameters = list(inspect.signature(FIGURES[key].grid).parameters.values())
        assert parameters[0].name == "seed"
        assert all(p.kind is p.KEYWORD_ONLY for p in parameters[1:])
        assert set(FIGURES[key].quick) == {p.name for p in parameters[1:]}

    def test_parser_surface_matches_the_golden_capture(self):
        # tests/data/cli_parser_surface.json pins every flag of every
        # subcommand, every field of every config and every parameter of
        # every protocol's replica constructor, with its default: a setting
        # is added, dropped or re-defaulted only by a reviewed diff of that
        # file.  Regenerate it with ``python tests/test_cli.py``.
        golden = json.loads(SURFACE_FILE.read_text())
        surface = surfaces()
        assert sorted(surface) == sorted(golden)
        for command, triples in golden.items():
            assert surface[command] == triples, command

    def test_figure_absorbed_sweep_without_growing_the_cli(self):
        surface = parser_surface(build_parser())
        assert set(surface) == {"run", "figure", "chaos", "serve", "loadgen", "overload",
                                "topology"}
        figure_flags = {flag for options, _, _ in surface["figure"] for flag in options}
        assert figure_flags <= PARENT_SWEEP_FLAGS
        # Files are written only on request.
        assert build_parser().parse_args(["figure", "7"]).out is None

    @pytest.mark.parametrize("argv, complaint", [
        (["chaos", "--nemesis", "bogus"], "invalid choice: 'bogus'"),
        (["chaos", "--matrix", "--protocols", "bogus"], "invalid choice: 'bogus'"),
        (["run", "--admission", "bogus:1"], "unknown admission policy"),
        (["loadgen", "--endpoint", "junk"], "expected ID=HOST:PORT"),
        (["loadgen"], "--endpoint"),
        (["serve", "--node-id", "0"], "--peer"),
        (["serve", "--node-id", "7", "--peer", "0=h:1", "--peer", "1=h:2",
          "--peer", "2=h:3"], "--node-id 7 is not in the --peer map"),
        (["overload", "--offered", "-5"], "must be > 0"),
        (["figure", "7", "--quick", "--workers", "abc", "--cells", "nomatch"],
         "'auto' or a positive count"),
        (["figure", "7", "--workers", "-1"], "'auto' or a positive count"),
        (["serve", "--peer", "1=h:99999"], "port in 1-65535"),
        (["serve", "--peer", "0=127.0.0.1:7000", "--peer", "0=127.0.0.1:7001"],
         "replica 0 is already at 127.0.0.1:7000"),
        (["loadgen", "--endpoint", "0=h:1", "--endpoint", "0=h:2"],
         "replica 0 is already at h:1"),
        # Folded into ``figure`` / replaced by ``bench/run.py --trace 1``.
        (["sweep", "6"], "invalid choice: 'sweep'"),
        (["profile", "6"], "invalid choice: 'profile'"),
        # A partial run must not overwrite a committed record.
        (["figure", "7", "--quick", "--out", "results"], "--quick or --cells"),
        (["figure", "7", "--cells", "fig7/mencius", "--out", "results"],
         "--quick or --cells"),
    ])
    def test_bad_input_is_a_one_line_usage_error(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error_line = capsys.readouterr().err.strip().splitlines()[-1]
        # argparse reports unknown flags from the top-level parser.
        assert re.match(rf"repro( {argv[0]})?: error: ", error_line)
        assert complaint in error_line


#: Fields the parent of the change that pinned ``tests/data/cli_configs.json``
#: still had, deleted there because no product path set them.
DELETED_FIELDS = {"CostModel": {"per_type_ms", "self_message_factor"},
                  "NetworkConfig": {"wire_accounting"}, "WorkloadConfig": {"payload_size"}}


def as_built_now(record):
    """A golden field record with the fields deleted since it was printed
    gone, ``ExperimentConfig.workload`` (always ``None`` from the CLI)
    replaced by the flat ``shared_pool_size`` at its default, and the field
    added since, ``ExperimentConfig.crash_at_ms``, at its default (no flag
    sets it)."""
    if isinstance(record, list):
        return [as_built_now(item) for item in record]
    if not isinstance(record, dict):
        return record
    deleted = DELETED_FIELDS.get(record.get("<class>"), set())
    now = {key: as_built_now(value) for key, value in record.items() if key not in deleted}
    if record.get("<class>") == "ExperimentConfig":
        assert now.pop("workload") is None
        now["shared_pool_size"] = 100
        now["crash_at_ms"] = None
    return now


class TestBuiltConfigs:
    """The flag table builds the configs the per-config ``from_args``
    methods it replaced built (``tests/data/cli_configs.json``, printed at
    their last commit with ``python tests/test_cli.py --configs``)."""

    GOLDEN = json.loads(CONFIGS_FILE.read_text())

    def test_the_golden_covers_every_listed_command_line(self):
        assert [entry["argv"] for entry in self.GOLDEN] == CONFIG_ARGVS

    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
    def test_a_command_line_builds_its_golden_configs(self, entry):
        assert built_configs(entry["argv"]) == as_built_now(entry["built"])

    @pytest.mark.parametrize("argv, complaint", [
        (["run", "--conflicts", "150", "--duration", "100"], "conflict_rate must be within"),
        (["loadgen", "--endpoint", "0=127.0.0.1:1", "--conflicts", "150"],
         "conflict_rate must be within"),
        (["chaos", "--conflicts", "150", "--quick"], "conflict_rate must be within"),
        (["run", "--duration", "-5"], "duration_ms must be > 0"),
        (["overload", "--clients", "0", "--offered", "100"], "clients must be >= 1"),
        (["run", "--clients", "-1", "--duration", "100"], "clients must be >= 1"),
        (["chaos", "--clients", "0", "--quick"], "clients must be >= 1"),
    ])
    def test_a_bad_value_is_a_usage_error_before_anything_runs(self, argv, complaint,
                                                              capsys):
        # Every entry point is a recorder that ends the command without an
        # exit, so SystemExit means none was reached: no cluster was built.
        with pytest.raises(SystemExit) as exit_info:
            built_configs(argv)
        assert exit_info.value.code == 2
        error_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert error_line.startswith(f"repro {argv[0]}: error: ")
        assert complaint in error_line


class TestCommands:
    def test_topology_command(self, capsys):
        assert main(["topology"]) == 0
        output = capsys.readouterr().out
        for site in ("virginia", "mumbai", "frankfurt"):
            assert site in output

    def test_run_command_small(self, capsys):
        code = main(["run", "--protocol", "caesar", "--conflicts", "10", "--clients", "2",
                     "--duration", "1500"])
        assert code == 0
        output = capsys.readouterr().out
        assert "throughput" in output
        assert "mean latency" in output
        assert "consistency violations: 0" in output

    def test_run_exits_1_on_a_consistency_violation(self, capsys, monkeypatch):
        """``consistency violations: N`` with N > 0 is a wrong answer, not a report."""
        monkeypatch.setattr(Cluster, "check_consistency",
                            lambda cluster: [(0, 1, (0, 0), (1, 0))])
        code = main(["run", "--protocol", "caesar", "--clients", "2", "--duration", "1000"])
        assert "consistency violations: 1" in capsys.readouterr().out
        assert code == 1

    def test_a_collecting_run_keeps_its_reading(self, capsys):
        """A fixed ``--history-gc`` run's counts, as the layout that kept a
        position per executed id, a copy of the delivery order and a timestamp
        object per history entry printed them."""
        assert main(["run", "--protocol", "caesar", "--history-gc", "--conflicts", "30",
                     "--duration", "3000", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "commands completed: 1473\n" in output
        assert "history entries:    0 live after collection\n" in output
        assert re.search(r"commands collected +9005\n", output)

    def test_run_command_with_batching_and_throughput_model(self, capsys):
        code = main(["run", "--protocol", "epaxos", "--clients", "2", "--duration", "1200",
                     "--batching", "--throughput"])
        assert code == 0
        assert "commands/s" in capsys.readouterr().out

    def test_figure_seven_quick(self, capsys):
        code = main(["figure", "7", "--quick"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "IN" in output

    def test_figure_list_cells_runs_nothing(self, capsys):
        code = main(["figure", "9", "--list-cells", "--cells", "fig9/caesar/*"])
        assert code == 0
        output = capsys.readouterr().out
        assert "figure 9" in output
        # Filtered grid: caesar cells selected, others listed but skipped.
        assert "* fig9/caesar/0.0" in output
        assert "- fig9/multipaxos" in output

    def test_figure_all_expands_to_every_figure_in_table_order(self, capsys):
        # Duplicates and the order on the command line do not matter.
        assert main(["figure", "9", "all", "6", "--list-cells"]) == 0
        headers = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("figure ")]
        assert headers == list(FIGURES)

    def test_figure_list_cells_full_grid(self, capsys):
        code = main(["figure", "7", "--list-cells"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("multipaxos-IR", "multipaxos-IN", "mencius", "caesar-0%"):
            assert f"* fig7/{name}" in output

    def test_figure_out_reproduces_the_committed_files_byte_for_byte(self, tmp_path, capsys):
        # The in-tier-1 proof that the CLI path *is* the record path: no flags
        # but --out, and the two committed Figure 7 files come back.
        assert main(["figure", "7", "--workers", "1", "--out", str(tmp_path)]) == 0
        table = "figure7_single_leader_comparison.txt"
        name = "BENCH_figure7_single_leader_comparison.json"
        assert (tmp_path / table).read_bytes() == (RESULTS_DIR / table).read_bytes()
        assert (tmp_path / table).read_text() in capsys.readouterr().out
        if sys.version_info < (3, 12):
            # 3.12 made sum() of floats compensated, which moves the series'
            # last digits (the table rounds them away); records are committed
            # from 3.11.
            assert (tmp_path / name).read_bytes() == (RESULTS_DIR / name).read_bytes()


def _process_states() -> dict:
    """``pid -> (state, parent pid)`` of every process, read off ``/proc``."""
    states = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue   # gone while listed
            states[int(entry)] = (fields[0], int(fields[1]))
    return states


def _running(pids) -> list:
    """Those of ``pids`` still running (a zombie has exited)."""
    states = _process_states()
    return sorted(pid for pid in pids if pid in states and states[pid][0] != "Z")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the process table off /proc")
class TestServeSignals:
    def test_sigterm_stops_every_process_the_cluster_started(self):
        """A plain ``kill`` of ``repro serve --replicas 3`` used to end it at once
        and leave its replica processes running, reparented away."""
        # The interpreter imports the package this test imported.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parent.parent))
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--protocol", "caesar",
             "--replicas", "3"], stdout=subprocess.PIPE, text=True, env=env)
        children = []
        try:
            for line in serve.stdout:
                if "cluster up" in line:
                    break
            children = [pid for pid, (_, parent) in _process_states().items()
                        if parent == serve.pid]
            assert len(children) >= 3   # the replicas, and multiprocessing's helpers
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=60) == 0
            deadline = time.monotonic() + 10.0
            while _running(children) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _running(children) == []
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
            for pid in _running(children):
                os.kill(pid, signal.SIGKILL)
            serve.stdout.close()


class TestChaosCommand:
    def test_list_schedules(self, capsys):
        assert main(["chaos", "--list-schedules"]) == 0
        output = capsys.readouterr().out
        assert "* minority-partition" in output
        assert "flaky-links" in output

    def test_single_run_quick(self, capsys):
        code = main(["chaos", "--protocol", "caesar", "--nemesis", "minority-partition",
                     "--seed", "3", "--quick"])
        assert code == 0
        output = capsys.readouterr().out
        assert "verdict: PASS" in output
        assert "nemesis log:" in output
        assert "linearizable" in output

    def test_matrix_quick_subset(self, capsys):
        code = main(["chaos", "--matrix", "--quick", "--seed", "7",
                     "--protocols", "caesar", "mencius",
                     "--schedules", "minority-partition", "clock-skew"])
        assert code == 0
        output = capsys.readouterr().out
        assert "4/4 cells passed" in output

    def test_matrix_failure_sets_exit_code(self, capsys, disable_retransmission):
        # With retransmission patched out, message loss costs Mencius
        # liveness — the historical split.
        disable_retransmission()
        code = main(["chaos", "--matrix", "--quick", "--seed", "3",
                     "--protocols", "mencius", "--schedules", "flaky-links"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_lossy_matrix_passes_with_retransmission(self, capsys):
        code = main(["chaos", "--matrix", "--quick", "--seed", "3",
                     "--protocols", "mencius", "--schedules", "flaky-links"])
        assert code == 0
        assert "1/1 cells passed" in capsys.readouterr().out

    def test_random_schedules(self, capsys):
        code = main(["chaos", "--protocol", "caesar", "--random", "2", "--seed", "5",
                     "--quick"])
        assert code == 0
        assert "2/2 random schedules passed" in capsys.readouterr().out

    def test_chaos_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--protocol", "raft"])


class TestServeLoadgenParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.protocol == "caesar"
        assert args.replicas == 3
        assert args.host == "127.0.0.1"
        assert args.peer is None
        assert args.node_id is None

    def test_serve_accepts_peer_map(self):
        args = build_parser().parse_args(
            ["serve", "--node-id", "1",
             "--peer", "0=10.0.0.1:7000", "--peer", "1=10.0.0.2:7000"])
        assert args.node_id == 1
        assert args.peer == ["0=10.0.0.1:7000", "1=10.0.0.2:7000"]

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.protocol == "caesar"
        assert args.clients == 3
        assert args.commands == 10
        assert not args.open_loop
        assert args.endpoint is None
        assert args.launch is None

    def test_parse_peers_roundtrip(self):
        from repro.net.cluster import parse_peers

        peers = parse_peers(["0=127.0.0.1:7000", "2=replica2.internal:7100"])
        assert peers == {0: ("127.0.0.1", 7000), 2: ("replica2.internal", 7100)}

    def test_parse_peers_rejects_malformed_entries(self):
        from repro.net.cluster import parse_peers

        with pytest.raises(ValueError):
            parse_peers(["0:127.0.0.1=7000"])

    def test_parse_peers_refuses_a_replica_named_twice(self):
        from repro.net.cluster import parse_peers

        # Keeping the last entry would silently start a one-replica cluster.
        with pytest.raises(ValueError, match="bad peer entry '0=127.0.0.1:7001'"):
            parse_peers(["0=127.0.0.1:7000", "0=127.0.0.1:7001"])

    @pytest.mark.parametrize("port", ["0", "65536", "99999", "-1"])
    def test_parse_peers_refuses_ports_outside_the_tcp_range(self, port):
        from repro.net.cluster import parse_peers

        with pytest.raises(ValueError, match="bad peer entry"):
            parse_peers([f"1=h:{port}"])
        assert parse_peers(["1=h:1", "2=h:65535"]) == {1: ("h", 1), 2: ("h", 65535)}

    def test_loadgen_warmup_flag_reaches_the_config(self):
        # Regression: loadgen used to hardwire MetricsCollector(warmup_ms=0)
        # so TCP percentiles always included cold-start samples.
        from repro.net.client import LoadgenConfig

        args = build_parser().parse_args(["loadgen", "--warmup-ms", "250"])
        assert args.warmup_ms == 250.0
        config = build_config(LoadgenConfig, args, endpoints={0: ("127.0.0.1", 7000)})
        assert config.warmup_ms == 250.0

    def test_loadgen_admission_flag_parses(self):
        args = build_parser().parse_args(["loadgen", "--admission", "deadline:200"])
        assert args.admission == "deadline:200"


class TestOverloadReportCommands:
    def test_overload_defaults(self):
        args = build_parser().parse_args(["overload"])
        assert args.protocol == "caesar"
        assert args.substrate == "sim"
        assert args.offered is None
        assert args.warmup_ms == 1000.0
        assert args.admission is None

    def test_overload_rejects_unknown_substrate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overload", "--substrate", "udp"])

    def test_overload_prints_its_table(self, capsys):
        code = main(["overload", "--offered", "120", "--duration", "500",
                     "--warmup-ms", "100", "--clients", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overload sweep" in out
        assert "offered/s" in out

    def test_history_gc_switch_parses_and_runs(self, capsys):
        assert build_parser().parse_args(["run", "--history-gc"]).history_gc is True
        assert build_parser().parse_args(["run"]).history_gc is False
        code = main(["run", "--protocol", "caesar", "--conflicts", "30",
                     "--clients", "2", "--duration", "1200", "--history-gc"])
        assert code == 0
        output = capsys.readouterr().out
        assert "history entries:" in output
        assert "commands collected" in output
        assert "consistency violations: 0" in output

    def test_overload_json_output(self, capsys):
        code = main(["overload", "--offered", "120", "--duration", "400",
                     "--warmup-ms", "100", "--clients", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["protocol"] == "caesar"
        assert payload["summary"]["points"] == 1
        assert len(payload["points"]) == 1
        assert payload["points"][0]["offered_per_second"] == 120.0

    def test_overload_json_completes_work_at_every_point(self, capsys):
        # The CI smoke gate, as a test: every offered load gets commands through.
        code = main(["overload", "--offered", "100", "200", "--duration", "400",
                     "--warmup-ms", "100", "--clients", "2", "--admission", "deadline:200",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [point["offered_per_second"] for point in payload["points"]] == [100.0, 200.0]
        assert all(point["completed"] > 0 for point in payload["points"])
        assert payload["summary"]["points"] == 2

    def test_overload_reads_its_knee_and_tail_whatever_the_order_of_offered(self, capsys):
        # Both points saturate (1600/s delivers ~410/s, 200/s ~165/s): the
        # knee is the lighter one and the tail the heavier one's, as if the
        # loads had been given ascending.
        code = main(["overload", "--offered", "1600", "200", "--duration", "1500",
                     "--warmup-ms", "500", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        points = payload["points"]
        assert [point["offered_per_second"] for point in points] == [200.0, 1600.0]
        assert all(point["goodput_per_second"] < 0.9 * point["offered_per_second"]
                   for point in points)
        summary = payload["summary"]
        assert summary["knee_offered_per_second"] == 200.0
        assert summary["max_offered_per_second"] == 1600.0
        assert summary["p99_latency_ms"] == points[-1]["p99_latency_ms"]
        assert summary["goodput_per_second"] == points[-1]["goodput_per_second"]


if __name__ == "__main__" and sys.argv[1:] == ["--configs"]:
    # One argv per line, each built config a field per line.
    text = json.dumps([{"argv": argv, "built": built_configs(argv)} for argv in CONFIG_ARGVS],
                      indent=1)
    print(re.sub(r'"argv": (\[[^\]]*\])',
                 lambda match: '"argv": ' + json.dumps(json.loads(match.group(1))), text))
elif __name__ == "__main__":
    surface = surfaces()
    lines = ["{"]
    for index, (name, rows) in enumerate(sorted(surface.items())):
        lines.append(f" {json.dumps(name)}: [")
        lines.append(",\n".join(f"  {json.dumps(row)}" for row in rows))
        lines.append(" ]" + ("," if index < len(surface) - 1 else ""))
    lines.append("}")
    print("\n".join(lines))
