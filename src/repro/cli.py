"""Command-line interface for running experiments and regenerating figures.

Installed as the ``repro`` console script::

    repro run --protocol caesar --conflicts 30 --clients 10
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
the configs are plain dataclasses, and everything the CLI prints can also be
produced programmatically (see ``examples/``).  Each subcommand is one
``handler(args) -> (text, exit_code)`` attached to its subparser, so
:func:`main` is parse → call → print.  Every flag that sets a config field,
and every flag used by several subcommands, is one row of :data:`FLAGS`: its
``add_argument`` keywords, the field it sets and its conversion.  A subcommand
picks the rows it takes (and their defaults) through :func:`flag_parent`, and
:func:`build_config` builds any config from the parsed flags; what is left in
a handler is the rule that belongs to that one subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import signal
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.chaos.nemesis import CONFORMANCE_SCHEDULES, NEMESIS_SCHEDULES
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.figures import FIGURES, run_figure
from repro.harness.protocols import PROTOCOLS
from repro.harness.sweep import key_string, matches_any, resolve_workers
from repro.metrics.report import format_protocol_stats
from repro.runtime.admission import admission_policy
from repro.runtime.costs import throughput_cost_model
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


@dataclasses.dataclass(frozen=True)
class Flag:
    """One row of :data:`FLAGS`.

    Attributes:
        options: ``add_argument`` keywords (a subcommand may set its own
            default, see :func:`flag_parent`).
        field: the config field the flag sets; ``None`` means the flag's own
            dest.  A config without that field takes the flag under its dest
            if it has a field of that name (``--clients`` sets
            ``clients_per_site`` on the simulator and ``clients`` over TCP).
        convert: the parsed value -> the field's value (``None``: as parsed).
    """

    options: Dict[str, object]
    field: Optional[str] = None
    convert: Optional[Callable[[object], object]] = None


#: Every flag that sets a config field or is taken by several subcommands:
#: flag name -> its row.  Defaults are per-subcommand (see flag_parent).
FLAGS = {
    # The live table, not a copy: a protocol registered later is accepted too.
    "protocol": Flag(dict(choices=PROTOCOLS)),
    "seed": Flag(dict(type=int)),
    "clients": Flag(dict(type=int, help="number of clients (per site on the simulator)"),
                    "clients_per_site"),
    "conflicts": Flag(dict(type=float, help="percentage of conflicting commands (0-100)"),
                      "conflict_rate", lambda percent: percent / 100.0),
    "duration": Flag(dict(type=float,
                          help="measured duration in ms (simulated; real over TCP)"),
                     "duration_ms"),
    "warmup-ms": Flag(dict(type=float, help="discard latency samples from the first MS "
                                             "of a run (or of each load point)")),
    "quick": Flag(dict(action="store_true",
                       help="use scaled-down parameters (fast, coarser numbers)")),
    "workers": Flag(dict(default=1, type=_validated(lambda text: resolve_workers(text, 1)),
                         help="worker processes: a positive count, or 'auto' for one per "
                              "CPU (default: 1, in-process; every value prints the same "
                              "bytes)")),
    "cells": Flag(dict(nargs="+", default=None, metavar="PATTERN",
                       help="only run cells whose key matches one of these globs, e.g. "
                            "'fig9/caesar/*' (unmatched cells report '-')")),
    "json": Flag(dict(action="store_true", help="print the result as JSON")),
    "replicas": Flag(dict(type=int, help="cluster size (single-host TCP clusters)")),
    "recovery": Flag(dict(action="store_true",
                          help="run failure detectors / recovery machinery")),
    "admission": Flag(dict(default=None, metavar="SPEC", type=_validated(admission_policy),
                           help="admission-control policy on every replica's submit "
                                "path: 'none' (counting baseline), 'inflight:K', "
                                "'deadline:MS' (default: no admission hook)")),
    "history-gc": Flag(dict(action="store_true",
                            help="CAESAR replicas forget the commands every replica has "
                                 "delivered, learned from each other's delivery reports "
                                 "(TCP replicas always do; off on the simulator, where "
                                 "it would change the figures' wire bytes)")),
    "throughput": Flag(dict(action="store_true",
                            help="use the saturation CPU cost model (throughput study)"),
                       "cost_model", lambda on: throughput_cost_model() if on else None),
    "batching": Flag(dict(action="store_true", help="enable network message batching")),
    "nemesis": Flag(dict(default="minority-partition", metavar="NAME",
                         choices=sorted(NEMESIS_SCHEDULES),
                         help="named nemesis schedule (see --list-schedules)"),
                    "schedule"),
    "fault-at": Flag(dict(type=float, default=None,
                          help="virtual ms at which the faults begin "
                               "(default: 1000, or 500 with --quick)"),
                     "fault_at_ms"),
    "hold": Flag(dict(type=float, default=None,
                      help="virtual ms until the schedule has fully healed "
                           "(default: 2000, or 1000 with --quick)"),
                 "fault_hold_ms"),
    "host": Flag(dict(default="127.0.0.1", help="bind address for auto-allocated ports")),
    "commands": Flag(dict(type=int, default=10, help="closed-loop commands per client"),
                     "commands_per_client"),
    "open-loop": Flag(dict(action="store_true",
                           help="Poisson open-loop injection instead of closed loop")),
    "rate": Flag(dict(type=float, default=50.0,
                      help="open-loop rate per client (commands/s)"),
                 "rate_per_client"),
    "timeout": Flag(dict(type=float, default=60.0,
                         help="overall wall-clock budget (seconds)"),
                    "timeout_s"),
    "substrate": Flag(dict(choices=["sim", "tcp"], default="sim",
                           help="run on the simulator or over real sockets")),
}


def flag_parent(*flags: str, **defaults) -> argparse.ArgumentParser:
    """Build a parent parser carrying a subcommand's share of FLAGS.

    Positional names take the flag as declared; keyword names (``clients=10``)
    take it with that subcommand's default.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in flags:
        parent.add_argument(f"--{name}", **FLAGS[name].options)
    for name, default in defaults.items():
        name = name.replace("_", "-")
        parent.add_argument(f"--{name}", **dict(FLAGS[name].options, default=default))
    return parent


def build_config(config_class, args: argparse.Namespace, **overrides):
    """Build ``config_class`` from the parsed flags, then ``overrides``.

    Each flag of :data:`FLAGS` that ``args`` carries sets its field, if the
    config has one, through its conversion; a flag whose value is or becomes
    ``None`` sets nothing, so the dataclass default stands.  A ``ValueError``
    from the config is reported as a usage error through ``args.fail``.
    """
    names = {spec.name for spec in dataclasses.fields(config_class)}
    kwargs = {}
    for dest, value in vars(args).items():
        flag = FLAGS.get(dest.replace("_", "-"))
        if flag is None or value is None:
            continue
        name = flag.field if flag.field in names else dest
        if flag.convert is not None:
            value = flag.convert(value)
        if name in names and value is not None:
            kwargs[name] = value
    try:
        return config_class(**(kwargs | overrides))
    except ValueError as exc:
        args.fail(str(exc))


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

    command(
        "run", _run, "run one protocol on one workload",
        flag_parent("admission", "history-gc", "batching", "throughput", protocol="caesar",
                    seed=1, clients=10, conflicts=0.0, duration=8000.0))

    figure_parser = command(
        "figure", _figure,
        "regenerate figures of the paper through the parallel sweep orchestrator; "
        "with no flags the printed table is the committed one",
        flag_parent("quick", "workers", "cells"))
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
        flag_parent("recovery", "quick", "nemesis", "fault-at", "hold", protocol="caesar",
                    seed=1, clients=2, conflicts=50.0))
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
        flag_parent("recovery", "admission", "host", protocol="caesar", seed=0,
                    replicas=3))
    serve_parser.add_argument("--peer", **_PEER_ENTRY,
                              help="explicit peer map entry (repeat per replica; "
                                   "required for multi-host mode)")
    serve_parser.add_argument("--node-id", type=int, default=None,
                              help="run only this replica in the foreground "
                                   "(multi-host mode; requires --peer entries)")

    loadgen_parser = command(
        "loadgen", _loadgen, "drive a live cluster with the seeded workload over TCP",
        flag_parent("json", "admission", "commands", "open-loop", "rate", "timeout",
                    protocol="caesar", seed=0, clients=3, conflicts=2.0, duration=2000.0,
                    warmup_ms=0.0))
    loadgen_parser.add_argument("--endpoint", **_PEER_ENTRY,
                                help="replica endpoint (repeat per replica)")
    loadgen_parser.add_argument("--launch", type=int, default=None, metavar="N",
                                help="launch an N-replica local cluster first, "
                                     "drive it, then tear it down")

    overload_parser = command(
        "overload", _overload,
        "sweep open-loop offered load past the saturation knee and report "
        "goodput + latency tail per point",
        flag_parent("workers", "json", "admission", "history-gc", "substrate",
                    protocol="caesar", seed=1, clients=4, conflicts=2.0,
                    duration=4000.0, warmup_ms=1000.0, replicas=3))
    overload_parser.add_argument("--offered", type=_positive_float, nargs="+",
                                 default=None, metavar="RATE",
                                 help="total offered loads to sweep, in commands/s "
                                      "across the cluster (default: 200 400 800 1600)")

    command("topology", lambda args: (ec2_five_sites().describe(), 0),
            "print the simulated five-site EC2 topology")
    return parser


def _run(args: argparse.Namespace) -> Outcome:
    # Warm-up is a quarter of the run, capped at 2 s, as the figures use.
    result = run_experiment(build_config(ExperimentConfig, args,
                                         warmup_ms=min(2000.0, args.duration / 4)))
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
    if result.config.history_gc:
        live = sum(len(replica.history) for replica in result.cluster.replicas
                   if hasattr(replica, "history"))
        lines.append(f"history entries:    {live} live after collection")
    # The unified runtime stats record means no per-protocol formatting here:
    # whatever counters moved are reported, regardless of the protocol.
    counters = format_protocol_stats([replica.stats for replica in result.cluster.replicas])
    if counters:
        lines.append(counters)
    # Replicas that executed conflicting commands in different orders: a
    # wrong answer, whatever else the run printed.
    return "\n".join(lines), 1 if result.consistency_violations else 0


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

    windows = {}
    if args.quick:  # scaled-down windows, for those the user did not set
        windows["settle_ms"] = 800.0
        if args.fault_at is None:
            windows["fault_at_ms"] = 500.0
        if args.hold is None:
            windows["fault_hold_ms"] = 1000.0
    config = build_config(ChaosConfig, args, **windows)
    if args.matrix:
        results = run_conformance_matrix(args.protocols or list(PROTOCOLS),
                                         args.schedules or list(CONFORMANCE_SCHEDULES),
                                         config)
        ok = all(result.ok for result in results)
        return format_matrix(results), 0 if ok else 1

    if args.random is not None:
        root = DeterministicRandom(args.seed)
        outputs = []
        failures = 0
        for index in range(args.random):
            rng = root.fork_cell(("chaos-random", args.seed, index))
            plan = random_plan(rng, 5, config.fault_at_ms, config.fault_hold_ms,
                               include_lossy=args.include_lossy)
            result = run_chaos(dataclasses.replace(config, plan=plan))
            failures += 0 if result.ok else 1
            outputs.append(f"[{index}] {result.verdict():24s} "
                           f"{len(plan.faults)} faults, "
                           f"{result.client_stats.completed} ops, "
                           f"probes {result.probes_completed}/{result.probes_submitted}")
        outputs.append(f"{args.random - failures}/{args.random} random schedules passed")
        return "\n".join(outputs), 0 if failures == 0 else 1

    result = run_chaos(config)
    return format_result(result), 0 if result.ok else 1


def _peer_map(args: argparse.Namespace, entries):
    """The map of ``--peer`` / ``--endpoint`` entries (``None`` when empty)."""
    from repro.net.cluster import parse_peers

    try:
        return parse_peers(entries or [])
    except ValueError as exc:  # a map that names a replica twice
        args.fail(str(exc))


def _serve(args: argparse.Namespace) -> Outcome:
    """Run the serve subcommand; prints as it goes and blocks until interrupted."""
    from repro.net.cluster import ServeConfig, serve_cluster
    from repro.net.replica import serve_replica

    peers = _peer_map(args, args.peer)
    config = build_config(ServeConfig, args,
                          **({"peers": peers, "replicas": len(peers)} if peers else {}))
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
    # A plain ``kill`` stops the cluster as Ctrl-C does: the replica
    # processes go with this one instead of being left running.
    previous = signal.signal(signal.SIGTERM, _interrupt)
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
        signal.signal(signal.SIGTERM, previous)
    return "", 0


def _interrupt(signum: int, frame) -> None:
    """SIGTERM handler of ``serve``'s cluster mode: stop as on Ctrl-C."""
    raise KeyboardInterrupt


def _loadgen(args: argparse.Namespace) -> Outcome:
    """Run the loadgen subcommand; exit code 1 on missing decisions."""
    from repro.net.client import LoadgenConfig, run_loadgen
    from repro.net.cluster import ServeConfig, serve_cluster

    endpoints = {}
    if args.launch is None:
        endpoints = _peer_map(args, args.endpoint)
        if not endpoints:
            args.fail("needs --endpoint entries or --launch N")
    # Built, and so checked, before a cluster is launched.
    config = build_config(LoadgenConfig, args, endpoints=endpoints)
    cluster = None
    if args.launch is not None:
        cluster = serve_cluster(build_config(ServeConfig, args, replicas=args.launch))
        config = dataclasses.replace(config, endpoints=cluster.peers)
    try:
        report = run_loadgen(config)
    finally:
        if cluster is not None:
            cluster.stop()
    text = json.dumps(report.as_dict(), indent=2) if args.json else report.describe()
    return text, 0 if report.ok else 1


def _overload(args: argparse.Namespace) -> Outcome:
    """Run the overload subcommand (offered-load sweep)."""
    from repro.harness.overload import OverloadConfig, run_overload_sweep

    config = build_config(OverloadConfig, args,
                          **({"offered_loads": tuple(args.offered)} if args.offered else {}))
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
