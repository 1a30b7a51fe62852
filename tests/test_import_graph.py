"""What a process imports is what it runs.

``repro.api`` resolves its names on first use and a protocol's module loads
when a replica of that protocol is first built, so start-up — paid by every
``repro`` command, every ``bench/`` repetition and every spawned replica —
covers only the modules the run needs.  These gates read ``sys.modules`` in a
fresh interpreter: module names, never milliseconds.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness.protocols import PROTOCOLS
from tests import source_index

#: What a simulator run of one protocol has no use for: the socket substrate
#: and everything asyncio drags in, a database, the process pools of the
#: sweep orchestrator, the fault library, every other protocol.
DENIED_MODULES = ("asyncio", "ssl", "socket", "sqlite3", "multiprocessing",
                  "concurrent.futures")
DENIED_PREFIXES = ("repro.net", "repro.chaos", "repro.baselines.",
                   "repro.harness.chaos", "repro.harness.overload", "repro.harness.sweep",
                   "repro.harness.figures")


def in_fresh_interpreter(script: str):
    """Run ``script`` with this process's import path; it prints one JSON value."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                            check=True)
    return json.loads(result.stdout)


def denied(modules) -> list:
    return sorted(name for name in modules
                  if name in DENIED_MODULES or name.startswith(DENIED_PREFIXES))


def test_importing_the_facade_imports_nothing_else():
    loaded = in_fresh_interpreter(
        "import json, sys\n"
        "from repro import api\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n")
    assert loaded == ["repro", "repro.api"]


RUN_ONE_EXPERIMENT = (
    "import json, sys\n"
    "from repro import api\n"
    "result = api.run_experiment(api.ExperimentConfig(protocol={protocol!r}, duration_ms=300))\n"
    "assert result.metrics.count > 0\n"
    "print(json.dumps(sorted(sys.modules)))\n")


def test_a_caesar_run_loads_no_socket_substrate_no_store_and_no_other_protocol():
    modules = in_fresh_interpreter(RUN_ONE_EXPERIMENT.format(protocol="caesar"))
    assert "repro.core.caesar" in modules
    assert denied(modules) == []


def test_an_epaxos_run_loads_exactly_its_own_baseline():
    modules = in_fresh_interpreter(RUN_ONE_EXPERIMENT.format(protocol="epaxos"))
    assert denied(modules) == ["repro.baselines.epaxos"]
    assert "repro.core.caesar" not in modules


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_nothing_is_imported_after_the_first_command_is_submitted(protocol):
    """Every import happens while the cluster is built, so none of its cost
    can move from ``setup_s`` into the per-commit host time."""
    late = in_fresh_interpreter(
        "import json, sys\n"
        "from repro import api\n"
        "from repro.harness.experiment import attach_clients, build_experiment_cluster\n"
        "from repro.metrics.collector import MetricsCollector\n"
        f"config = api.ExperimentConfig(protocol={protocol!r}, conflict_rate=0.5,\n"
        "                               duration_ms=600, warmup_ms=100)\n"
        "cluster = build_experiment_cluster(config)\n"
        "metrics = MetricsCollector(warmup_ms=config.warmup_ms)\n"
        "pool = attach_clients(cluster, config, metrics)\n"
        "built = set(sys.modules)\n"
        "cluster.start(); pool.start_all()\n"
        "cluster.run(config.warmup_ms + config.duration_ms)\n"
        "pool.stop_all(); cluster.run(config.drain_ms)\n"
        "assert metrics.summary().count > 0 and not cluster.check_consistency()\n"
        "print(json.dumps(sorted(set(sys.modules) - built)))\n")
    assert late == []


@pytest.mark.parametrize("name, module", [
    ("serve_cluster", "repro.net.cluster"),
    ("run_overload_sweep", "repro.harness.overload"),
    ("run_sweep", "repro.harness.sweep"),
])
def test_a_facade_name_loads_its_module_on_first_use_and_is_then_an_attribute(name, module):
    before, after, cached, same = in_fresh_interpreter(
        "import json, sys\n"
        "from repro import api\n"
        f"before = {module!r} in sys.modules or {name!r} in vars(api)\n"
        f"value = api.{name}\n"
        f"print(json.dumps([before, {module!r} in sys.modules, {name!r} in vars(api),\n"
        f"                  value is getattr(sys.modules[{module!r}], {name!r})]))\n")
    assert (before, after, cached, same) == (False, True, True, True)


def test_an_unknown_facade_name_is_an_attribute_error_naming_the_module():
    from repro import api

    with pytest.raises(AttributeError, match=r"module 'repro\.api' has no attribute 'nope'"):
        api.nope
    with pytest.raises(ImportError):
        exec("from repro.api import nope")
    assert set(api.__all__) <= set(dir(api))


#: What a TCP replica keeps of the simulator package: the process model every
#: replica subclasses, the failure detector with its ``Heartbeat`` message, and
#: the seeded random streams.  No event heap, no simulated network, no topology.
SIM_MODULES_A_REPLICA_RUNS_ON = {"repro.sim.node", "repro.sim.failures", "repro.sim.random"}


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_a_started_replica_server_loads_three_simulator_modules(protocol):
    loaded = in_fresh_interpreter(
        "import asyncio, json, sys\n"
        "from repro.net.replica import ReplicaConfig, ReplicaServer\n"
        "async def main():\n"
        "    peers = {node_id: ('127.0.0.1', 0) for node_id in range(3)}\n"
        f"    server = ReplicaServer(ReplicaConfig(node_id=0, peers=peers, protocol={protocol!r},\n"
        "                                         recovery=True))\n"
        "    await server.start()\n"
        "    await server.stop()\n"
        "asyncio.run(main())\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('repro.sim.')]))\n")
    assert set(loaded) == SIM_MODULES_A_REPLICA_RUNS_ON


def test_the_cli_loads_no_database():
    loaded = in_fresh_interpreter(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps('sqlite3' in sys.modules))\n")
    assert loaded is False


def simulator_imports(path: str):
    """Every ``repro.sim`` module the file at ``path`` under ``src/repro`` imports,
    with its function."""
    return [(module, function) for module, function in source_index.imports(path)
            if module == "repro.sim" or module.startswith("repro.sim.")]


def test_below_the_harness_only_the_modules_a_replica_runs_on_are_imported():
    """``runtime/``, the protocols and ``net/`` import the three simulator
    modules a replica runs on, and no other, with no exception."""
    offenders = [f"{path}: {module}"
                 for layer in ("runtime", "consensus", "core", "baselines", "workload",
                               "kvstore", "metrics", "net")
                 for path in source_index.package_paths(layer)
                 for module, _ in simulator_imports(path)
                 if module not in SIM_MODULES_A_REPLICA_RUNS_ON]
    assert offenders == []


def test_no_module_under_src_imports_sqlite3():
    offenders = [path for path in source_index.package_paths()
                 for module, _ in source_index.imports(path)
                 if module == "sqlite3" or module.startswith("sqlite3.")]
    assert offenders == []


def test_the_experiment_harness_never_loads_the_figure_table():
    """The throughput cost model lives in ``runtime/costs.py``, so building
    an experiment (``repro run --throughput``, ``repro overload``) needs no
    figure: no import of ``repro.harness.figures`` at any nesting, and none
    at run time."""
    for name in ("experiment.py", "overload.py"):
        assert [module for module, _ in source_index.imports(f"harness/{name}")
                if module == "repro.harness.figures"] == [], name
    loaded = in_fresh_interpreter(
        "import json, sys\n"
        "from repro.harness.experiment import ExperimentConfig\n"
        "from repro.runtime.costs import throughput_cost_model\n"
        "config = ExperimentConfig(cost_model=throughput_cost_model())\n"
        "assert config.cost_model.default_cost_ms == 0.5\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert "repro.harness.experiment" in loaded
    assert "repro.harness.figures" not in loaded


# ----------------------------------------------------------------- the specs

#: Each executable spec under ``tests/``: its file, the definitions that make
#: it up (``None``: the whole file) and the package names it may use, as
#: ``module -> names`` (``"*"``: any name of the module).  A spec states what
#: the paper or the format requires, so it names none of the code it checks:
#: the CAESAR and EPaxos specs inherit only the kernel and the vocabulary (no
#: recovery, predecessor, delivery, conflict-index or execution code), the
#: event spec names nothing of ``repro.sim.events``, and the wire spec no
#: encode or decode function.
SPECS = {
    "caesar": ("spec_caesar.py", None, {
        "repro.consensus.ballots": {"Ballot"},
        "repro.consensus.command": {"Command", "CommandId"},
        "repro.consensus.interface": {"DecisionKind"},
        "repro.consensus.timestamps": {"LogicalTimestamp", "TimestampGenerator"},
        "repro.core.caesar": {"PHASE_DONE", "PHASE_FAST", "PHASE_RETRY", "PHASE_SLOW",
                              "LeaderState"},
        "repro.core.history": {"CommandStatus"},
        "repro.core.messages": "*",
        "repro.runtime.kernel": {"ProtocolKernel", "QuorumTracker", "handles"},
    }),
    "epaxos": ("spec_epaxos.py", None, {
        "repro.baselines.epaxos": {"Accept", "AcceptReply", "Commit", "InstanceId",
                                   "InstanceStatus", "Instance", "PreAccept", "PreAcceptReply",
                                   "Prepare", "PrepareReply"},
        "repro.consensus.ballots": {"Ballot"},
        "repro.consensus.command": {"Command"},
        "repro.consensus.interface": {"DecisionKind"},
        "repro.runtime.kernel": {"ProtocolKernel", "QuorumTracker", "handles"},
    }),
    "events": ("test_sim_engine_differential.py", {"SpecEvent", "SpecQueue", "SpecSimulator"},
               {"repro.sim.simulator": {"SimulationError"}}),
    "wire": ("spec_wire.py", None, {
        "repro.runtime.codec": {"UintCodec", "SintCodec", "BoolCodec", "StrCodec",
                                "OptionalCodec", "TupleCodec", "SeqCodec", "FrozenSetCodec",
                                "SortedSeqCodec", "StructCodec"},
        "repro.runtime.registry": {"TYPE_IDS", "MessageCodec"},
    }),
}


def spec_violations(source: str, definitions, allowed) -> list:
    """The package names a spec imports (or, for ``definitions`` of a larger
    file, the imported names they use) that ``allowed`` does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update({alias.asname or alias.name: (node.module or "", alias.name)
                             for alias in node.names})
        elif isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name: (alias.name, "*")
                             for alias in node.names})
    if definitions is not None:
        used = {node.id for definition in tree.body if getattr(definition, "name", None)
                in definitions for node in ast.walk(definition) if isinstance(node, ast.Name)}
        imported = {name: origin for name, origin in imported.items() if name in used}
    return sorted(f"{module}.{name}" for module, name in imported.values()
                  if module.startswith("repro")
                  and allowed.get(module) != "*" and name not in allowed.get(module, ()))


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_a_spec_names_only_the_vocabulary_it_is_allowed(spec):
    path, definitions, allowed = SPECS[spec]
    source = (pathlib.Path(__file__).parent / path).read_text(encoding="utf-8")
    assert spec_violations(source, definitions, allowed) == []


@pytest.mark.parametrize("spec, borrowed, named", [
    ("caesar", "from repro.core.recovery import RecoveryManager",
     "repro.core.recovery.RecoveryManager"),
    ("epaxos", "from repro.baselines.epaxos import EPaxosReplica",
     "repro.baselines.epaxos.EPaxosReplica"),
    ("events", "from repro.sim.events import EventQueue\nclass SpecQueue(EventQueue): pass",
     "repro.sim.events.EventQueue"),
    ("wire", "from repro.runtime.codec import encode_uvarint",
     "repro.runtime.codec.encode_uvarint"),
])
def test_the_guard_names_product_code_a_spec_borrows(spec, borrowed, named):
    path, definitions, allowed = SPECS[spec]
    source = (pathlib.Path(__file__).parent / path).read_text(encoding="utf-8")
    assert spec_violations(source + "\n" + borrowed + "\n", definitions, allowed) == [named]
