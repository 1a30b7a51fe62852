"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import pathlib
import re
import sys

import pytest

from repro.cli import build_parser, main
from repro.harness.chaos import ChaosConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import FIGURES
from repro.harness.overload import OverloadConfig
from repro.net.client import LoadgenConfig
from repro.net.cluster import ServeConfig
from repro.net.replica import ReplicaConfig
from repro.sim.network import NetworkConfig

SURFACE_FILE = pathlib.Path(__file__).parent / "data" / "cli_parser_surface.json"

#: The committed figure tables and BENCH records.
RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

#: Every config a CLI flag, a figure grid or the benchmark can fill in.
CONFIGS = (ExperimentConfig, ClusterConfig, ChaosConfig, ServeConfig, ReplicaConfig,
           LoadgenConfig, OverloadConfig, NetworkConfig)

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
        # subcommand and every field of every config, with its default: a
        # setting is added, dropped or re-defaulted only by a reviewed diff
        # of that file.  Regenerate it with ``python tests/test_cli.py``.
        golden = json.loads(SURFACE_FILE.read_text())
        surface = parser_surface(build_parser()) | config_surface()
        assert sorted(surface) == sorted(golden)
        for command, triples in golden.items():
            assert surface[command] == triples, command

    def test_figure_absorbed_sweep_without_growing_the_cli(self):
        surface = parser_surface(build_parser())
        assert set(surface) == {"run", "compare", "figure", "chaos", "serve", "loadgen",
                                "overload", "topology"}
        figure_flags = {flag for options, _, _ in surface["figure"] for flag in options}
        assert figure_flags <= PARENT_SWEEP_FLAGS
        # Files are written only on request.
        assert build_parser().parse_args(["figure", "7"]).out is None

    @pytest.mark.parametrize("argv, complaint", [
        (["chaos", "--nemesis", "bogus"], "invalid choice: 'bogus'"),
        (["chaos", "--matrix", "--protocols", "bogus"], "invalid choice: 'bogus'"),
        (["run", "--admission", "bogus:1"], "unknown admission policy"),
        (["run", "--history-gc", "0"], "must be > 0"),
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
        config = LoadgenConfig.from_args(args, endpoints={0: ("127.0.0.1", 7000)})
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

    def test_history_gc_flag_parses_and_runs(self, capsys):
        args = build_parser().parse_args(["run", "--history-gc", "250"])
        assert args.history_gc == 250.0
        code = main(["run", "--protocol", "caesar", "--conflicts", "30",
                     "--clients", "2", "--duration", "1200", "--history-gc", "200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "history GC:" in output
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


if __name__ == "__main__":
    surface = parser_surface(build_parser()) | config_surface()
    lines = ["{"]
    for index, (name, rows) in enumerate(sorted(surface.items())):
        lines.append(f" {json.dumps(name)}: [")
        lines.append(",\n".join(f"  {json.dumps(row)}" for row in rows))
        lines.append(" ]" + ("," if index < len(surface) - 1 else ""))
    lines.append("}")
    print("\n".join(lines))
