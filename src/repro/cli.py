"""Command-line interface for running experiments and regenerating figures.

Installed as the ``repro`` console script::

    repro run --protocol caesar --conflicts 30 --clients 10
    repro compare --conflicts 0 10 30
    repro figure 6
    repro figure 9 --quick --workers 4
    repro figure all --workers auto --out benchmarks/results
    repro chaos --protocol caesar --nemesis minority-partition --seed 3
    repro chaos --matrix --quick
    repro serve --protocol caesar --replicas 3
    repro loadgen --launch 3 --clients 3 --commands 10
    repro overload --offered 200 600 1200 --admission deadline:200
    repro topology

The CLI is a thin wrapper over :mod:`repro.api`: argument parsing lives here,
every config is built through its ``from_args`` classmethod, and everything
the CLI prints can also be produced programmatically (see ``examples/``).
Each subcommand is one ``handler(args) -> (text, exit_code)`` attached to its
subparser, so :func:`main` is parse → call → print.  Flags used by several
subcommands are declared once in :data:`SHARED_FLAGS`; a subcommand picks the
ones it takes (and their defaults) through :func:`shared_flags`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Optional, Sequence, Tuple

from repro.chaos.nemesis import CONFORMANCE_SCHEDULES, NEMESIS_SCHEDULES
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.figures import FIGURES, run_figure
from repro.harness.protocols import PROTOCOLS
from repro.harness.sweep import key_string, matches_any, resolve_workers
from repro.metrics.report import format_protocol_stats, format_series
from repro.runtime.admission import admission_policy
from repro.sim.topology import EC2_SHORT_LABELS, EC2_SITES, ec2_five_sites

#: A subcommand's outcome: the text to print and the process exit code.
Outcome = Tuple[str, int]


def _validated(parse: Callable[[str], object]) -> Callable[[str], str]:
    """An argparse ``type=`` that checks a spec with ``parse`` but keeps the string.

    Specs travel through configs as text and are parsed where they are used;
    checking them here turns a late traceback into a one-line usage error.
    """
    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return check


def _peer_entry(spec: str) -> None:
    from repro.net.cluster import parse_peers

    parse_peers([spec])


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


_PEER_ENTRY = dict(action="append", default=None, metavar="ID=HOST:PORT",
                   type=_validated(_peer_entry))

#: Flags used by two or more subcommands, declared once: flag name ->
#: ``add_argument`` keywords.  Defaults are per-subcommand (see shared_flags).
SHARED_FLAGS = {
    # The live table, not a copy: a protocol registered later is accepted too.
    "protocol": dict(choices=PROTOCOLS),
    "seed": dict(type=int),
    "clients": dict(type=int, help="number of clients (per site on the simulator)"),
    "conflicts": dict(type=float, help="percentage of conflicting commands (0-100)"),
    "duration": dict(type=float,
                     help="measured duration in ms (simulated; real over TCP)"),
    "warmup-ms": dict(type=float, help="discard latency samples from the first MS "
                                        "of a run (or of each load point)"),
    "quick": dict(action="store_true",
                  help="use scaled-down parameters (fast, coarser numbers)"),
    "workers": dict(default=1, type=_validated(lambda text: resolve_workers(text, 1)),
                    help="worker processes: a positive count, or 'auto' for one per "
                         "CPU (default: 1, in-process; every value prints the same "
                         "bytes)"),
    "cells": dict(nargs="+", default=None, metavar="PATTERN",
                  help="only run cells whose key matches one of these globs, e.g. "
                       "'fig9/caesar/*' (unmatched cells report '-')"),
    "json": dict(action="store_true", help="print the result as JSON"),
    "replicas": dict(type=int, help="cluster size (single-host TCP clusters)"),
    "recovery": dict(action="store_true",
                     help="run failure detectors / recovery machinery"),
    "admission": dict(default=None, metavar="SPEC", type=_validated(admission_policy),
                      help="admission-control policy on every replica's submit "
                           "path: 'none' (counting baseline), 'inflight:K', "
                           "'deadline:MS' (default: no admission hook)"),
    "history-gc": dict(type=_positive_float, default=None, metavar="MS",
                       help="collect history entries delivered by every replica "
                            "on this virtual-ms cadence (off by default; changes "
                            "wire bytes, so never used for figure reproduction)"),
}


def shared_flags(*flags: str, **defaults) -> argparse.ArgumentParser:
    """Build a parent parser carrying a subcommand's share of SHARED_FLAGS.

    Positional names take the flag as declared; keyword names (``clients=10``)
    take it with that subcommand's default.  A list default (``compare``'s
    ``conflicts=[...]``) makes the flag accept several values.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in flags:
        parent.add_argument(f"--{name}", **SHARED_FLAGS[name])
    for name, default in defaults.items():
        spec = dict(SHARED_FLAGS[name.replace("_", "-")], default=default)
        if isinstance(default, list):
            spec["nargs"] = "+"
        parent.add_argument("--" + name.replace("_", "-"), **spec)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of CAESAR (Speeding up Consensus by Chasing Fast "
                    "Decisions, DSN 2017) on a simulated geo-replicated substrate "
                    "and over real TCP sockets.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[argparse.Namespace], Outcome],
                help: str, flags: Optional[argparse.ArgumentParser] = None):
        sub = subparsers.add_parser(name, help=help, parents=[flags] if flags else [])
        # ``fail`` lets a handler report a cross-flag usage error the same way
        # argparse reports a bad flag: "repro <cmd>: error: ...", exit code 2.
        sub.set_defaults(handler=handler, fail=sub.error)
        return sub

    run_parser = command(
        "run", _run, "run one protocol on one workload",
        shared_flags("admission", "history-gc", protocol="caesar", seed=1,
                     clients=10, conflicts=0.0, duration=8000.0))
    run_parser.add_argument("--batching", action="store_true",
                            help="enable network message batching")
    run_parser.add_argument("--throughput", action="store_true",
                            help="use the saturation CPU cost model (throughput study)")

    command("compare", _compare, "compare all protocols at given conflict rates",
            shared_flags(seed=1, clients=10, conflicts=[0.0, 10.0, 30.0],
                         duration=6000.0))

    figure_parser = command(
        "figure", _figure,
        "regenerate figures of the paper through the parallel sweep orchestrator; "
        "with no flags the printed table is the committed one",
        shared_flags("quick", "workers", "cells"))
    figure_parser.add_argument("figures", nargs="+", choices=[*FIGURES, "all"],
                               metavar="figure",
                               help="figures to regenerate (%(choices)s)")
    figure_parser.add_argument("--list-cells", action="store_true",
                               help="print the resolved cell grid (with --cells matches "
                                    "marked) and exit without running anything")
    figure_parser.add_argument("--out", type=pathlib.Path, default=None, metavar="DIR",
                               help="also write each figure's <stem>.txt table and "
                                    "BENCH_<stem>.json record into DIR (the committed "
                                    "ones live in benchmarks/results; refused with "
                                    "--quick or --cells, which would overwrite a "
                                    "record with a partial run)")

    chaos_parser = command(
        "chaos", _chaos,
        "run a protocol under a nemesis fault schedule and check the client "
        "history for linearizability",
        shared_flags("recovery", "quick", protocol="caesar", seed=1,
                     clients=2, conflicts=50.0))
    chaos_parser.add_argument("--nemesis", default="minority-partition", metavar="NAME",
                              choices=sorted(NEMESIS_SCHEDULES),
                              help="named nemesis schedule (see --list-schedules)")
    chaos_parser.add_argument("--fault-at", type=float, default=None,
                              help="virtual ms at which the faults begin "
                                   "(default: 1000, or 500 with --quick)")
    chaos_parser.add_argument("--hold", type=float, default=None,
                              help="virtual ms until the schedule has fully healed "
                                   "(default: 2000, or 1000 with --quick)")
    chaos_parser.add_argument("--matrix", action="store_true",
                              help="run the protocols x schedules conformance matrix "
                                   "(exit code 1 when any cell fails)")
    chaos_parser.add_argument("--protocols", nargs="+", default=None, metavar="PROTO",
                              choices=PROTOCOLS,
                              help="protocols for --matrix (default: all of them)")
    chaos_parser.add_argument("--schedules", nargs="+", default=None, metavar="NAME",
                              choices=sorted(NEMESIS_SCHEDULES),
                              help="schedules for --matrix (default: the full "
                                   "conformance library, lossy schedules included)")
    chaos_parser.add_argument("--random", type=int, default=None, metavar="N",
                              help="run N generated random schedules instead of a "
                                   "named one")
    chaos_parser.add_argument("--include-lossy", action="store_true",
                              help="let --random draw message-loss and crash faults")
    chaos_parser.add_argument("--list-schedules", action="store_true",
                              help="print the named schedule library and exit")

    serve_parser = command(
        "serve", _serve,
        "run replicas as real processes speaking the wire format over TCP",
        shared_flags("recovery", "admission", protocol="caesar",
                     seed=0, replicas=3))
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address for auto-allocated ports")
    serve_parser.add_argument("--peer", **_PEER_ENTRY,
                              help="explicit peer map entry (repeat per replica; "
                                   "required for multi-host mode)")
    serve_parser.add_argument("--node-id", type=int, default=None,
                              help="run only this replica in the foreground "
                                   "(multi-host mode; requires --peer entries)")

    loadgen_parser = command(
        "loadgen", _loadgen, "drive a live cluster with the seeded workload over TCP",
        shared_flags("json", "admission", protocol="caesar", seed=0,
                     clients=3, conflicts=2.0, duration=2000.0, warmup_ms=0.0))
    loadgen_parser.add_argument("--endpoint", **_PEER_ENTRY,
                                help="replica endpoint (repeat per replica)")
    loadgen_parser.add_argument("--launch", type=int, default=None, metavar="N",
                                help="launch an N-replica local cluster first, "
                                     "drive it, then tear it down")
    loadgen_parser.add_argument("--commands", type=int, default=10,
                                help="closed-loop commands per client")
    loadgen_parser.add_argument("--open-loop", action="store_true",
                                help="Poisson open-loop injection instead of "
                                     "closed loop")
    loadgen_parser.add_argument("--rate", type=float, default=50.0,
                                help="open-loop rate per client (commands/s)")
    loadgen_parser.add_argument("--timeout", type=float, default=60.0,
                                help="overall wall-clock budget (seconds)")

    overload_parser = command(
        "overload", _overload,
        "sweep open-loop offered load past the saturation knee and report "
        "goodput + latency tail per point",
        shared_flags("workers", "json", "admission", "history-gc",
                     protocol="caesar", seed=1, clients=4, conflicts=2.0,
                     duration=4000.0, warmup_ms=1000.0, replicas=3))
    overload_parser.add_argument("--offered", type=_positive_float, nargs="+",
                                 default=None, metavar="RATE",
                                 help="total offered loads to sweep, in commands/s "
                                      "across the cluster (default: 200 400 800 1600)")
    overload_parser.add_argument("--substrate", choices=["sim", "tcp"], default="sim",
                                 help="run on the simulator or over real sockets")

    command("topology", lambda args: (ec2_five_sites().describe(), 0),
            "print the simulated five-site EC2 topology")
    return parser


def _run(args: argparse.Namespace) -> Outcome:
    result = run_experiment(ExperimentConfig.from_args(args))
    lines = [f"protocol:           {args.protocol}",
             f"conflict rate:      {args.conflicts:.0f}%",
             f"commands completed: {result.metrics.count}",
             f"throughput:         {result.throughput_per_second:.1f} commands/s"]
    if result.overall_latency is not None:
        lines.append(f"mean latency:       {result.overall_latency.mean:.1f} ms "
                     f"(p95 {result.overall_latency.p95:.1f} ms)")
    ratio = result.slow_path_ratio
    if ratio is not None:
        lines.append(f"slow decisions:     {ratio * 100.0:.1f}%")
    lines.append("per-site mean latency (ms):")
    for site in EC2_SITES:
        mean = result.site_mean_latency(site)
        if mean is not None:
            lines.append(f"  {EC2_SHORT_LABELS[site]:<3} {mean:7.1f}")
    lines.append(f"consistency violations: {result.consistency_violations}")
    compactor = result.cluster.compactor
    if compactor is not None:
        live = sum(len(replica.history) for replica in result.cluster.replicas
                   if hasattr(replica, "history"))
        lines.append(f"history GC:         {compactor.commands_removed} commands "
                     f"collected, {live} entries still live")
    # The unified runtime stats record means no per-protocol formatting here:
    # whatever counters moved are reported, regardless of the protocol.
    counters = format_protocol_stats([replica.stats for replica in result.cluster.replicas])
    if counters:
        lines.append(counters)
    return "\n".join(lines), 0


def _compare(args: argparse.Namespace) -> Outcome:
    latency = {}
    slow = {}
    for protocol in PROTOCOLS:
        latency[protocol] = {}
        slow[protocol] = {}
        for conflicts in args.conflicts:
            result = run_experiment(ExperimentConfig.from_args(
                args, protocol=protocol, conflict_rate=conflicts / 100.0))
            key = f"{conflicts:.0f}%"
            overall = result.overall_latency
            latency[protocol][key] = overall.mean if overall else None
            ratio = result.slow_path_ratio
            slow[protocol][key] = ratio * 100.0 if ratio is not None else None
    return (format_series("Mean latency (ms) across sites", latency, "conflict")
            + "\n\n"
            + format_series("Slow-path share (%)", slow, "conflict")), 0


def _figure(args: argparse.Namespace) -> Outcome:
    if args.out is not None and (args.quick or args.cells):
        args.fail("--out writes a figure's full table and record; it cannot be "
                  "combined with --quick or --cells")
    outputs = []
    # Figure order, duplicates dropped.
    for target in (key for key in FIGURES if key in args.figures or "all" in args.figures):
        overrides = FIGURES[target].quick if args.quick else {}
        if args.list_cells:
            # The grid's cells, built and never run.
            chosen = [(key_string(cell.key), not args.cells or matches_any(cell.key, args.cells))
                      for cell in FIGURES[target].cells(**overrides)]
            selected = sum(picked for _, picked in chosen)
            lines = [f"figure {target} — {len(chosen)} cells, "
                     f"{selected} selected, {len(chosen) - selected} filtered out"]
            lines.extend(f"  {'*' if picked else '-'} {key}" for key, picked in chosen)
            outputs.append("\n".join(lines))
            continue
        result = run_figure(target, workers=args.workers, cell_filter=args.cells, **overrides)
        lines = [result.table]
        if args.out is not None:
            record_path = result.write(args.out)
            lines.append(f"\n[figure {target}: wrote {args.out / result.record.name}.txt "
                         f"and {record_path}]")
        outputs.append("\n".join(lines))
    return "\n\n".join(outputs), 0


def _chaos(args: argparse.Namespace) -> Outcome:
    from repro.chaos.nemesis import random_plan
    from repro.harness.chaos import (ChaosConfig, format_matrix, format_result,
                                     run_chaos, run_conformance_matrix)
    from repro.sim.random import DeterministicRandom

    if args.list_schedules:
        lines = ["named nemesis schedules ('*' = in the conformance set):"]
        for name, builder in sorted(NEMESIS_SCHEDULES.items()):
            marker = "*" if name in CONFORMANCE_SCHEDULES else " "
            lines.append(f"  {marker} {name:22s} {(builder.__doc__ or '').strip()}")
        return "\n".join(lines), 0

    kwargs = ChaosConfig.kwargs_from_args(args)
    if args.matrix:
        results = run_conformance_matrix(args.protocols or list(PROTOCOLS),
                                         args.schedules or list(CONFORMANCE_SCHEDULES),
                                         **kwargs)
        ok = all(result.ok for result in results)
        return format_matrix(results), 0 if ok else 1

    if args.random is not None:
        root = DeterministicRandom(args.seed)
        outputs = []
        failures = 0
        for index in range(args.random):
            rng = root.fork_cell(("chaos-random", args.seed, index))
            plan = random_plan(rng, 5, kwargs["fault_at_ms"], kwargs["fault_hold_ms"],
                               include_lossy=args.include_lossy)
            result = run_chaos(ChaosConfig(protocol=args.protocol, plan=plan, **kwargs))
            failures += 0 if result.ok else 1
            outputs.append(f"[{index}] {result.verdict():24s} "
                           f"{len(plan.faults)} faults, "
                           f"{result.client_stats.completed} ops, "
                           f"probes {result.probes_completed}/{result.probes_submitted}")
        outputs.append(f"{args.random - failures}/{args.random} random schedules passed")
        return "\n".join(outputs), 0 if failures == 0 else 1

    result = run_chaos(ChaosConfig.from_args(args))
    return format_result(result), 0 if result.ok else 1


def _serve(args: argparse.Namespace) -> Outcome:
    """Run the serve subcommand; prints as it goes and blocks until interrupted."""
    from repro.net.cluster import ServeConfig, serve_cluster
    from repro.net.replica import serve_replica

    try:
        config = ServeConfig.from_args(args)
    except ValueError as exc:  # a --peer map that names a replica twice
        args.fail(str(exc))
    if args.node_id is not None:
        # Multi-host mode: one replica in the foreground of this process.
        if config.peers is None:
            args.fail("--node-id requires an explicit --peer map")
        if args.node_id not in config.peers:
            args.fail(f"--node-id {args.node_id} is not in the --peer map "
                      f"(ids: {sorted(config.peers)})")
        import asyncio

        host, port = config.peers[args.node_id]
        print(f"replica {args.node_id} ({config.protocol}) listening on {host}:{port}",
              flush=True)
        try:
            asyncio.run(serve_replica(config.replica_config(args.node_id, config.peers)))
        except KeyboardInterrupt:
            pass
        return "", 0

    cluster = serve_cluster(config)
    try:
        print(f"{config.protocol} cluster up — {len(cluster.peers)} replicas:")
        for node_id, (host, port) in sorted(cluster.peers.items()):
            print(f"  --endpoint {node_id}={host}:{port}")
        print("press Ctrl-C to stop", flush=True)
        for process in cluster.processes.values():
            process.join()
    except KeyboardInterrupt:
        pass
    finally:
        cluster.stop()
    return "", 0


def _loadgen(args: argparse.Namespace) -> Outcome:
    """Run the loadgen subcommand; exit code 1 on missing decisions."""
    from repro.net.client import LoadgenConfig, run_loadgen
    from repro.net.cluster import ServeConfig, parse_peers, serve_cluster

    cluster = None
    if args.launch is not None:
        cluster = serve_cluster(ServeConfig.from_args(args, replicas=args.launch,
                                                      peers=None))
        endpoints = cluster.peers
    else:
        try:
            endpoints = parse_peers(args.endpoint or [])
        except ValueError as exc:  # an --endpoint map that names a replica twice
            args.fail(str(exc))
        if not endpoints:
            args.fail("needs --endpoint entries or --launch N")
    try:
        report = run_loadgen(LoadgenConfig.from_args(args, endpoints))
    finally:
        if cluster is not None:
            cluster.stop()
    text = json.dumps(report.as_dict(), indent=2) if args.json else report.describe()
    return text, 0 if report.ok else 1


def _overload(args: argparse.Namespace) -> Outcome:
    """Run the overload subcommand (offered-load sweep)."""
    from repro.harness.overload import OverloadConfig, run_overload_sweep

    config = OverloadConfig.from_args(args)
    result = run_overload_sweep(config)
    if not args.json:
        return result.table(), 0
    return json.dumps({"config": {"protocol": config.protocol,
                                  "substrate": config.substrate,
                                  "admission": config.admission,
                                  "offered_loads": list(config.offered_loads)},
                       "summary": result.summary_metrics(),
                       "points": [point.as_dict() for point in result.points]},
                      indent=2), 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    text, code = args.handler(args)
    if text:
        print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
