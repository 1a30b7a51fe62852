"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import argparse
import json
import pathlib
import re

import pytest

from repro.cli import FIGURE_DRIVERS, QUICK_OVERRIDES, build_parser, main
from repro.metrics.store import ResultsStore

SURFACE_FILE = pathlib.Path(__file__).parent / "data" / "cli_parser_surface.json"


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

    def test_every_figure_has_a_quick_profile(self):
        assert set(FIGURE_DRIVERS) == set(QUICK_OVERRIDES)

    def test_parser_surface_matches_the_golden_capture(self):
        # tests/data/cli_parser_surface.json was captured at the commit before
        # the table-driven rebuild: no flag may be added, dropped or re-defaulted.
        golden = json.loads(SURFACE_FILE.read_text())
        surface = parser_surface(build_parser())
        assert sorted(surface) == sorted(golden)
        for command, triples in golden.items():
            assert surface[command] == triples, command

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
        # Removed flag: BENCH records are always deterministic now.
        (["sweep", "6", "--stable-records"], "unrecognized arguments: --stable-records"),
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

    def test_sweep_list_cells_runs_nothing(self, capsys):
        code = main(["sweep", "9", "--list-cells", "--cells", "fig9/caesar/*"])
        assert code == 0
        output = capsys.readouterr().out
        assert "sweep 9" in output
        # Filtered grid: caesar cells selected, others listed but skipped.
        assert "* fig9/caesar/0.0" in output
        assert "- fig9/multipaxos" in output

    def test_sweep_store_row_gets_the_timing_the_bench_file_omits(self, tmp_path, capsys):
        store_path = tmp_path / "store.db"
        assert main(["sweep", "7", "--quick", "--serial", "--out", str(tmp_path),
                     "--store", str(store_path)]) == 0
        name = "BENCH_sweep_figure7_single_leader_comparison.json"
        on_disk = json.loads((tmp_path / name).read_text())
        with ResultsStore(store_path) as store:
            row = store.latest_run(kind="bench")
        assert row.label == name
        timing_keys = {"wall_seconds", "events_per_second", "python", "workers", "cpus"}
        assert timing_keys <= set(row.metrics)
        assert not timing_keys & set(on_disk)
        # Everything the file holds is in the row too, unchanged.
        assert {key: row.metrics[key] for key in on_disk} == on_disk
        assert main(["report", "--store", str(store_path), "--kind", "bench"]) == 0
        assert "events/s" in capsys.readouterr().out

    def test_sweep_list_cells_full_grid(self, capsys):
        code = main(["sweep", "7", "--list-cells"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("multipaxos-IR", "multipaxos-IN", "mencius", "caesar-0%"):
            assert f"* fig7/{name}" in output


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

    def test_matrix_failure_sets_exit_code(self, capsys):
        # With retransmission disabled, message loss costs Mencius liveness —
        # the historical split, now reproducible only behind --no-retransmit.
        code = main(["chaos", "--matrix", "--quick", "--seed", "3", "--no-retransmit",
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

    def test_loadgen_warmup_flag_reaches_the_config(self):
        # Regression: loadgen used to hardwire MetricsCollector(warmup_ms=0)
        # so TCP percentiles always included cold-start samples.
        from repro.net.client import LoadgenConfig

        args = build_parser().parse_args(["loadgen", "--warmup-ms", "250"])
        assert args.warmup_ms == 250.0
        config = LoadgenConfig.from_args(args, endpoints={0: ("127.0.0.1", 7000)})
        assert config.warmup_ms == 250.0

    def test_loadgen_admission_and_store_flags_parse(self):
        args = build_parser().parse_args(
            ["loadgen", "--admission", "deadline:200", "--store", "/tmp/s.db"])
        assert args.admission == "deadline:200"
        assert args.store == "/tmp/s.db"


class TestOverloadReportCommands:
    def test_overload_defaults(self):
        args = build_parser().parse_args(["overload"])
        assert args.protocol == "caesar"
        assert args.substrate == "sim"
        assert args.offered is None
        assert args.warmup_ms == 1000.0
        assert args.admission is None
        assert args.store is None

    def test_overload_rejects_unknown_substrate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overload", "--substrate", "udp"])

    def test_report_defaults_to_the_shared_store(self):
        from repro.metrics.store import DEFAULT_STORE_PATH

        args = build_parser().parse_args(["report"])
        assert args.store == str(DEFAULT_STORE_PATH)
        assert args.limit == 20
        assert not args.points

    def test_report_on_a_missing_store_is_friendly(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "absent.db")]) == 0
        assert "no results store" in capsys.readouterr().out

    def test_overload_store_report_end_to_end(self, tmp_path, capsys):
        store = tmp_path / "store.db"
        code = main(["overload", "--offered", "120", "--duration", "500",
                     "--warmup-ms", "100", "--clients", "2",
                     "--store", str(store), "--label", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overload sweep" in out
        assert "[stored as run 1" in out
        assert store.exists()
        assert main(["report", "--store", str(store), "--points"]) == 0
        report = capsys.readouterr().out
        assert "smoke" in report
        assert "offered/s" in report

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.number == "9"
        assert args.top == 20
        assert args.sort == "cumulative"
        assert args.cells is None

    def test_profile_quick_single_cell(self, tmp_path, capsys):
        store = tmp_path / "store.db"
        code = main(["profile", "6", "--quick", "--cells", "fig6/caesar/*",
                     "--top", "5", "--store", str(store)])
        assert code == 0
        output = capsys.readouterr().out
        assert "profiled figure6_latency_vs_conflicts" in output
        assert "simulator events" in output
        assert "decision path (repro/core/*)" in output
        assert "history.py:update" in output
        assert "[stored as run 1" in output
        assert store.exists()

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


    def test_store_is_closed_when_recording_fails(self, tmp_path, monkeypatch):
        # Regression: ``sweep --store`` closed the store only on the success
        # path, so a failure mid-command left store.db open.
        opened = []
        original_init = ResultsStore.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            opened.append(self)

        def failing_record_run(self, *args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(ResultsStore, "__init__", tracking_init)
        monkeypatch.setattr(ResultsStore, "record_run", failing_record_run)
        with pytest.raises(RuntimeError, match="disk full"):
            main(["sweep", "7", "--quick", "--serial", "--out", str(tmp_path),
                  "--store", str(tmp_path / "store.db")])
        assert opened and all(store._connection is None for store in opened)
