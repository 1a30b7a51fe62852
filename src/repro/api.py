"""One public facade over the repro toolkit.

Everything an external caller (a notebook, a script, the examples) needs is
re-exported here, so user code imports one module instead of spelunking the
package layout::

    from repro import api

    result = api.run_experiment(api.ExperimentConfig(protocol="caesar"))
    chaos = api.run_chaos(api.ChaosConfig(schedule="minority-partition"))
    cluster = api.serve_cluster(api.ServeConfig(protocol="caesar", replicas=3))

The entry points:

* :func:`run_experiment` — one protocol, one workload, on the simulator;
* :func:`run_sweep` — many experiment cells, optionally in parallel;
* :func:`run_chaos` — a protocol under a nemesis fault schedule, with
  linearizability checking;
* :func:`serve_cluster` — a real multiprocess TCP cluster on this host
  (paired with :func:`run_loadgen` to drive it);
* :func:`run_overload_sweep` — offered load swept past the saturation knee
  on either substrate, with optional admission control
  (:func:`admission_policy`) and persistence into a :class:`ResultsStore`;
* :func:`run_sharded` — a hash-partitioned keyspace over S independent
  consensus groups (:class:`ShardedConfig`), on generator-built WAN
  topologies (:func:`wan_topology`), optionally under zipfian skew
  (:class:`ZipfWorkloadConfig`).

Each entry point has a config dataclass (``ExperimentConfig``,
``ChaosConfig``, ``ServeConfig``, ``LoadgenConfig``, plus the underlying
``ClusterConfig`` / ``NetworkConfig`` / ``WorkloadConfig``), and every config
that maps onto CLI flags has a ``from_args`` classmethod — the CLI itself is
just argparse + these constructors.
"""

from __future__ import annotations

from repro.consensus.command import Command, CommandResult
from repro.harness.chaos import ChaosConfig, ChaosResult, run_chaos
from repro.harness.cluster import Cluster, ClusterConfig, build_cluster
from repro.harness.experiment import (ExperimentConfig, ExperimentResult,
                                      run_experiment)
from repro.harness.overload import (LoadPoint, OverloadConfig, OverloadResult,
                                    run_overload_sweep, store_overload_result)
from repro.harness.protocols import PROTOCOLS, register_protocol
from repro.harness.shard import (ShardedConfig, ShardedResult, ShardRouter,
                                 run_sharded)
from repro.harness.sweep import SweepCell, SweepResult, run_sweep, sweep_cell
from repro.metrics.report import render_report
from repro.metrics.store import ResultsStore, RunRecord, current_git_commit
from repro.net.client import (LoadgenConfig, LoadgenReport, fetch_stats,
                              run_loadgen)
from repro.net.cluster import LocalCluster, ServeConfig, serve_cluster
from repro.net.replica import ReplicaConfig, ReplicaServer, serve_replica
from repro.runtime.admission import (AdmissionPolicy, InflightLimit, NoAdmission,
                                     QueueDeadline, admission_policy)
from repro.sim.network import NetworkConfig
from repro.sim.topology import (Topology, custom_topology, ec2_five_sites,
                                wan_topology, with_replicas_per_site)
from repro.workload.generator import WorkloadConfig, ZipfWorkloadConfig

__all__ = [
    # entry points
    "run_experiment",
    "run_sweep",
    "run_chaos",
    "serve_cluster",
    "run_loadgen",
    "serve_replica",
    "run_overload_sweep",
    "run_sharded",
    # configs
    "ExperimentConfig",
    "ChaosConfig",
    "ClusterConfig",
    "NetworkConfig",
    "WorkloadConfig",
    "ZipfWorkloadConfig",
    "ShardedConfig",
    "ServeConfig",
    "LoadgenConfig",
    "ReplicaConfig",
    "OverloadConfig",
    # results / building blocks
    "ExperimentResult",
    "ChaosResult",
    "SweepCell",
    "SweepResult",
    "sweep_cell",
    "LoadgenReport",
    "LocalCluster",
    "ReplicaServer",
    "Cluster",
    "ShardedResult",
    "ShardRouter",
    "Topology",
    "ec2_five_sites",
    "custom_topology",
    "wan_topology",
    "with_replicas_per_site",
    "Command",
    "CommandResult",
    "PROTOCOLS",
    "build_cluster",
    "register_protocol",
    "fetch_stats",
    # overload / admission / results store
    "OverloadResult",
    "LoadPoint",
    "store_overload_result",
    "AdmissionPolicy",
    "NoAdmission",
    "InflightLimit",
    "QueueDeadline",
    "admission_policy",
    "ResultsStore",
    "RunRecord",
    "render_report",
    "current_git_commit",
]
