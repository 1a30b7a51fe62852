"""The chaos conformance matrix and the oracle-teeth controls.

Every protocol must pass every named nemesis schedule — lossy ones included,
now that the runtime retransmission + catch-up layer recovers lost quorum
traffic after the heal: zero linearizability violations, zero
internal-divergence violations, and progress after the heal.  Two controls
keep the oracle honest:

* a deliberately-broken protocol (dirty local reads before consensus) **is**
  flagged by the linearizability checker;
* with retransmission patched out (the ``disable_retransmission`` fixture), the
  slot-contiguous protocols under probabilistic message loss stay safe
  (linearizable) but lose liveness — the checker must distinguish exactly
  that, and the patch must reproduce the pre-retransmission split.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.multipaxos import MultiPaxosReplica
from repro.chaos.checker import check_history
from repro.chaos.history import HistoryTape
from repro.chaos.nemesis import (CONFORMANCE_SCHEDULES, DuplicationFault, LossFault,
                                 NemesisPlan, random_plan)
from repro.consensus.command import Command, CommandResult
from repro.consensus.quorums import QuorumSystem
from repro.harness.chaos import ChaosConfig, run_chaos, run_conformance_matrix
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network, NetworkConfig
from repro.sim.random import DeterministicRandom
from repro.sim.simulator import Simulator
from repro.sim.topology import ec2_five_sites

PROTOCOLS = ("caesar", "epaxos", "m2paxos", "mencius", "multipaxos")

GOLDEN_PATH = Path(__file__).parent / "data" / "chaos_golden.json"

#: ``repro chaos --matrix --quick --seed 7``: the windows and seed of the CI job.
GOLDEN_CELL = dict(seed=7, fault_at_ms=500.0, fault_hold_ms=1000.0, settle_ms=800.0)

#: No named schedule puts loss and duplication on the same link, so without
#: this tenth column the order of their two draws in ``LinkFaults.intercept``
#: would be pinned by nothing.
LOSS_AND_DUP = NemesisPlan("loss-and-dup", (
    LossFault(at_ms=500.0, until_ms=1500.0, probability=0.15),
    DuplicationFault(at_ms=500.0, until_ms=1500.0, probability=0.25)))

GOLDEN_SCHEDULES = CONFORMANCE_SCHEDULES + (LOSS_AND_DUP.name,)


def golden_cell(protocol: str, schedule: str) -> dict:
    """Everything one quick chaos cell determines besides its verdict string."""
    plan = LOSS_AND_DUP if schedule == LOSS_AND_DUP.name else None
    result = run_chaos(ChaosConfig(protocol=protocol, schedule=schedule, plan=plan,
                                   **GOLDEN_CELL))
    return {"verdict": result.verdict(), "events_executed": result.events_executed,
            "fault_stats": result.fault_stats,
            "taped": result.client_stats.total, "completed": result.client_stats.completed,
            "fast_decisions": result.fast_decisions,
            "slow_decisions": result.slow_decisions, "recoveries": result.recoveries}


class TestConformanceMatrix:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_protocol_survives_schedule(self, protocol, schedule):
        result = run_chaos(ChaosConfig(protocol=protocol, schedule=schedule, seed=3))
        assert result.ok, (
            f"{protocol} x {schedule}: {result.verdict()} — "
            f"probes {result.probes_completed}/{result.probes_submitted}; "
            f"{result.report.describe()}")
        # The matrix must actually exercise the fault plane and the tape.
        # (clock-skew perturbs timers, not links; crash-restart goes through
        # the crash injector, so neither registers LinkFaults stats.)
        assert result.client_stats.completed > 0
        assert result.fault_stats or schedule in ("clock-skew", "crash-restart")

    def test_matrix_helper_covers_cross_product(self):
        results = run_conformance_matrix(["caesar"], ["minority-partition", "clock-skew"],
                                         seed=3)
        assert [(r.config.protocol, r.plan.name) for r in results] == [
            ("caesar", "minority-partition"), ("caesar", "clock-skew")]
        assert all(r.ok for r in results)

    def test_chaos_run_is_deterministic(self):
        first = run_chaos(ChaosConfig(protocol="epaxos", schedule="dup-reorder", seed=11))
        second = run_chaos(ChaosConfig(protocol="epaxos", schedule="dup-reorder", seed=11))
        assert first.events_executed == second.events_executed
        assert first.fault_stats == second.fault_stats
        assert first.client_stats == second.client_stats
        assert first.verdict() == second.verdict()

    def test_random_loss_free_schedules_pass_on_caesar(self):
        root = DeterministicRandom(21)
        for index in range(3):
            plan = random_plan(root.fork_cell(("conformance-random", index)),
                               5, 1000.0, 2000.0)
            result = run_chaos(ChaosConfig(protocol="caesar", plan=plan, seed=21))
            assert result.ok, f"random plan {index}: {result.verdict()}"


class TestFaultedPathGolden:
    """A chaos cell is only PASS/FAIL, so a change to the fault plane or the
    network's send path that reorders, loses or double-counts traffic can keep
    all 45 verdicts green.  This pins what each quick cell *did*: events
    executed, fault-plane counters, taped/completed operations, decisions and
    recoveries — for the 5 x 9 matrix plus one hand-built loss-and-duplication
    plan per protocol.

    ``tests/data/chaos_golden.json`` was written by commit 720628e, before
    ``chaos/faults.py`` or ``sim/network.py`` lost ``size_bytes`` and the
    second fault plane (``PYTHONPATH=<720628e checkout>/src python
    tests/test_chaos_conformance.py > tests/data/chaos_golden.json``); running
    the module as a script prints the cells of whatever ``src`` is on the path.

    The ``crash-restart`` cells were rewritten once since, when a restart
    began to re-arm what the crash killed: every pending retransmit round is
    due at once, and CAESAR re-arms each fast proposal's timeout.  Old → new
    (the other 41 cells are byte-identical):

    - caesar: ``events_executed`` 6329 → 6345, ``taped`` and ``completed``
      218 → 219, ``fast_decisions`` 216 → 219, ``slow_decisions`` 2 → 0
      (with the retransmit half alone: 6379 events, 219 completed, 217 fast,
      2 slow);
    - epaxos: ``events_executed`` 5568 → 5648, ``taped`` and ``completed``
      240 → 243, ``fast_decisions`` 232 → 235;
    - m2paxos: ``events_executed`` 5251 → 5259;
    - mencius: ``events_executed`` 1595 → 1609;
    - multipaxos: unchanged.
    """

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_quick_matrix_reproduces_golden(self, protocol):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[protocol]
        assert sorted(golden) == sorted(GOLDEN_SCHEDULES)
        assert any(cell["fault_stats"].get("messages_held") for cell in golden.values())
        for schedule in GOLDEN_SCHEDULES:
            assert golden_cell(protocol, schedule) == golden[schedule], (protocol, schedule)


class TestSafetyWithoutLiveness:
    """Negative control: without retransmission, loss costs the
    slot-contiguous protocols liveness but never linearizability — the two
    verdicts must separate cleanly.  With the retransmission + catch-up layer
    the same runs pass outright; the historical split is reproduced by
    patching the layer out inside the test.
    """

    @pytest.mark.parametrize("protocol", ["mencius", "multipaxos"])
    def test_message_loss_recovered_by_retransmission(self, protocol):
        result = run_chaos(ChaosConfig(protocol=protocol, schedule="flaky-links", seed=3))
        assert result.progress
        assert result.ok, f"{protocol} x flaky-links: {result.verdict()}"

    @pytest.mark.parametrize("protocol", ["mencius", "multipaxos"])
    def test_without_retransmission_loss_blocks_progress_but_stays_linearizable(
            self, protocol, disable_retransmission):
        disable_retransmission()
        result = run_chaos(ChaosConfig(protocol=protocol, schedule="flaky-links", seed=3))
        assert not result.progress
        assert result.report.ok, result.report.describe()
        assert not result.internal_violations
        assert not result.ok


class DirtyReadMultiPaxos(MultiPaxosReplica):
    """Deliberately broken: answers clients from local state *before* consensus."""

    def submit(self, command, callback=None):
        if callback is not None:
            previous = self.state_machine._data.get(command.key)
            self.state_machine._data[command.key] = command.value or ""
            result = CommandResult(command_id=command.command_id, value=previous,
                                   executed_at=self.sim.now)
            self.sim.schedule(0.1, lambda: callback(result))
        super().submit(command)


class TestOracleHasTeeth:
    def test_dirty_read_mutation_is_flagged(self):
        """Two sites' clients hammer one key on the broken protocol: their
        locally-invented responses cannot be linearized."""
        sim = Simulator(seed=1)
        network = Network(sim, ec2_five_sites(), NetworkConfig(jitter_ms=2.0))
        quorums = QuorumSystem.for_cluster(5)
        replicas = [DirtyReadMultiPaxos(i, sim, network, quorums, KeyValueStore(),
                                        recovery_enabled=False) for i in range(5)]
        tape = HistoryTape(sim)

        def submit(origin, client, seq, value, delay):
            command = Command(command_id=(client, seq), key="hot", operation="put",
                              value=value, origin=origin)

            def fire():
                taped = tape.invoke(client, "hot", "put", value)
                replicas[origin].submit(
                    command, callback=lambda r, taped=taped: tape.respond(taped, r.value))

            sim.schedule(delay, fire)

        for i in range(4):
            submit(0, 100, i, f"a{i}", i * 30.0)
            submit(3, 101, i, f"b{i}", i * 30.0 + 5.0)
        sim.run(until=5000.0)

        report = check_history(tape)
        assert not report.ok
        assert report.violations
        assert "hot" in report.describe()

    def test_honest_multipaxos_same_workload_passes(self):
        """The same workload on the unbroken protocol is linearizable —
        the flag above is the mutation's fault, not the harness's."""
        sim = Simulator(seed=1)
        network = Network(sim, ec2_five_sites(), NetworkConfig(jitter_ms=2.0))
        quorums = QuorumSystem.for_cluster(5)
        replicas = [MultiPaxosReplica(i, sim, network, quorums, KeyValueStore(),
                                      recovery_enabled=False) for i in range(5)]
        tape = HistoryTape(sim)

        def submit(origin, client, seq, value, delay):
            command = Command(command_id=(client, seq), key="hot", operation="put",
                              value=value, origin=origin)

            def fire():
                taped = tape.invoke(client, "hot", "put", value)
                replicas[origin].submit(
                    command, callback=lambda r, taped=taped: tape.respond(taped, r.value))

            sim.schedule(delay, fire)

        for i in range(4):
            submit(0, 100, i, f"a{i}", i * 30.0)
            submit(3, 101, i, f"b{i}", i * 30.0 + 5.0)
        sim.run(until=5000.0)

        report = check_history(tape)
        assert report.ok, report.describe()


if __name__ == "__main__":
    print(json.dumps({protocol: {schedule: golden_cell(protocol, schedule)
                                 for schedule in GOLDEN_SCHEDULES}
                      for protocol in PROTOCOLS}, indent=1, sort_keys=True))
