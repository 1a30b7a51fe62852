"""One public facade over the repro toolkit.

Everything an external caller (a notebook, a script, the examples) needs is
reachable here, so user code imports one module instead of spelunking the
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
  (:func:`admission_policy`).

Each entry point has a config dataclass (``ExperimentConfig``,
``ChaosConfig``, ``ServeConfig``, ``LoadgenConfig``, plus the underlying
``ClusterConfig`` / ``NetworkConfig`` / ``WorkloadConfig``), and every config
that maps onto CLI flags has a ``from_args`` classmethod — the CLI itself is
just argparse + these constructors.

Importing this module imports nothing else.  A name's defining module is
loaded the first time the name is used (``api.X`` or ``from repro.api import
X``) and the value is then an ordinary attribute of this module, so a process
pays at start-up only for what it runs.
"""

from __future__ import annotations

from importlib import import_module

#: Every public name and the module that defines it.  Nothing is imported
#: until a name is first used, so a simulator run never loads ``repro.net``
#: (and with it ``asyncio``), nor a CAESAR run the four baselines.
_EXPORTS = {
    # entry points
    "run_experiment": "repro.harness.experiment",
    "run_sweep": "repro.harness.sweep",
    "run_chaos": "repro.harness.chaos",
    "serve_cluster": "repro.net.cluster",
    "run_loadgen": "repro.net.client",
    "serve_replica": "repro.net.replica",
    "run_overload_sweep": "repro.harness.overload",
    # configs
    "ExperimentConfig": "repro.harness.experiment",
    "ChaosConfig": "repro.harness.chaos",
    "ClusterConfig": "repro.harness.cluster",
    "NetworkConfig": "repro.sim.network",
    "WorkloadConfig": "repro.workload.generator",
    "ServeConfig": "repro.net.cluster",
    "LoadgenConfig": "repro.net.client",
    "ReplicaConfig": "repro.net.replica",
    "OverloadConfig": "repro.harness.overload",
    # results / building blocks
    "ExperimentResult": "repro.harness.experiment",
    "ChaosResult": "repro.harness.chaos",
    "SweepCell": "repro.harness.sweep",
    "SweepResult": "repro.harness.sweep",
    "sweep_cell": "repro.harness.sweep",
    "LoadgenReport": "repro.net.client",
    "LocalCluster": "repro.net.cluster",
    "ReplicaServer": "repro.net.replica",
    "Cluster": "repro.harness.cluster",
    "Topology": "repro.sim.topology",
    "ec2_five_sites": "repro.sim.topology",
    "custom_topology": "repro.sim.topology",
    "Command": "repro.consensus.command",
    "CommandResult": "repro.consensus.command",
    "PROTOCOLS": "repro.harness.protocols",
    "build_cluster": "repro.harness.cluster",
    "register_protocol": "repro.harness.protocols",
    "fetch_stats": "repro.net.client",
    # overload / admission
    "OverloadResult": "repro.harness.overload",
    "LoadPoint": "repro.harness.overload",
    "AdmissionPolicy": "repro.runtime.admission",
    "NoAdmission": "repro.runtime.admission",
    "InflightLimit": "repro.runtime.admission",
    "QueueDeadline": "repro.runtime.admission",
    "admission_policy": "repro.runtime.admission",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the module behind ``name`` on first use and keep the value (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
