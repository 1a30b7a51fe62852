"""Unit and integration tests for the admission-control policies.

The policies (:mod:`repro.runtime.admission`) guard the replica submit path
on both substrates; these tests cover the spec parsing, the per-policy
shedding rules, the counter aggregation, and the simulator submit-path
integration (rejected callbacks, client bookkeeping, experiment snapshots).
"""

from __future__ import annotations

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime.admission import (AdmissionPolicy, InflightLimit, NoAdmission,
                                     QueueDeadline, admission_policy,
                                     aggregate_admission)
from repro.sim.random import DeterministicRandom
from repro.workload.clients import ClientPool, ClosedLoopClient, OpenLoopClient
from repro.workload.generator import ConflictWorkload, WorkloadConfig
from tests.test_workload import one_client


class TestSpecParsing:
    def test_none_and_empty_mean_no_hook(self):
        assert admission_policy(None) is None
        assert admission_policy("") is None

    def test_counting_baseline(self):
        policy = admission_policy("none")
        assert isinstance(policy, NoAdmission)
        assert policy.describe() == "none"

    def test_inflight_with_parameter(self):
        policy = admission_policy("inflight:4")
        assert isinstance(policy, InflightLimit)
        assert policy.limit == 4
        assert policy.describe() == "inflight:4"

    def test_deadline_with_parameter(self):
        policy = admission_policy("deadline:250")
        assert isinstance(policy, QueueDeadline)
        assert policy.deadline_ms == 250.0
        assert policy.describe() == "deadline:250"

    @pytest.mark.parametrize("spec", ["inflight", "deadline", "inflight:", "Deadline"])
    def test_a_bounded_policy_without_its_bound_is_refused(self, spec):
        with pytest.raises(ValueError, match="names no bound"):
            admission_policy(spec)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            admission_policy("lifo:3")

    def test_none_with_parameter_rejected(self):
        with pytest.raises(ValueError):
            admission_policy("none:5")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError, match="bad admission policy parameter"):
            admission_policy("inflight:lots")

    def test_invalid_constructor_arguments_rejected(self):
        with pytest.raises(ValueError):
            InflightLimit(max_inflight=0)
        with pytest.raises(ValueError):
            QueueDeadline(deadline_ms=0.0)

    def test_roundtrip_through_describe(self):
        for spec in ("none", "inflight:7", "deadline:125"):
            assert admission_policy(spec).describe() == spec


class TestInflightLimit:
    def test_rejects_at_the_limit_and_recovers_on_release(self):
        policy = InflightLimit(max_inflight=2)
        assert policy.try_admit((0, 0), now=0.0) is None
        assert policy.try_admit((0, 1), now=1.0) is None
        reason = policy.try_admit((0, 2), now=2.0)
        assert reason is not None and "inflight limit 2" in reason
        policy.release((0, 0), now=3.0)
        assert policy.try_admit((0, 3), now=4.0) is None

    def test_counters(self):
        policy = InflightLimit(max_inflight=1)
        policy.try_admit((0, 0), now=0.0)
        policy.try_admit((0, 1), now=1.0)
        assert policy.stats.admitted == 1
        assert policy.stats.rejected == 1
        assert policy.stats.rejected_inflight == 1
        assert policy.stats.shed_deadline == 0
        assert policy.stats.max_inflight == 1
        assert policy.snapshot()["rejected"] == 1

    def test_release_of_unknown_id_is_ignored(self):
        policy = InflightLimit(max_inflight=1)
        policy.release((9, 9), now=0.0)
        assert policy.try_admit((0, 0), now=0.0) is None


class TestQueueDeadline:
    def test_sheds_while_head_of_queue_is_stale(self):
        policy = QueueDeadline(deadline_ms=100.0)
        assert policy.try_admit((0, 0), now=0.0) is None
        # Head of queue within deadline: still admitting.
        assert policy.try_admit((0, 1), now=50.0) is None
        # Head is now 150ms old: new arrivals are doomed, shed them.
        reason = policy.try_admit((0, 2), now=150.0)
        assert reason is not None and "deadline" in reason
        assert policy.stats.shed_deadline == 1
        # Once the stale head drains, admission resumes.
        policy.release((0, 0), now=160.0)
        policy.release((0, 1), now=160.0)
        assert policy.try_admit((0, 3), now=170.0) is None

    def test_empty_queue_never_sheds(self):
        policy = QueueDeadline(deadline_ms=1.0)
        assert policy.oldest_age_ms(now=1000.0) == 0.0
        assert policy.try_admit((0, 0), now=1000.0) is None


class TestAggregation:
    def test_no_policies_yields_none(self):
        assert aggregate_admission([None, None]) is None
        assert aggregate_admission([]) is None

    def test_counters_are_summed_and_max_inflight_maxed(self):
        first, second = InflightLimit(1), InflightLimit(2)
        first.try_admit((0, 0), now=0.0)
        first.try_admit((0, 1), now=1.0)  # rejected
        second.try_admit((1, 0), now=0.0)
        second.try_admit((1, 1), now=1.0)
        merged = aggregate_admission([first.snapshot(), None, second.snapshot()])
        assert merged == {"admitted": 3, "rejected": 1, "rejected_inflight": 1,
                          "shed_deadline": 0, "max_inflight": 2, "policy": "inflight:1"}

    def test_two_replica_dicts_reduce_as_the_stats_endpoint_sends_them(self):
        # The one reduction both substrates use: in process on the simulator,
        # and on the JSON each TCP replica's stats endpoint answers with.
        replicas = [{"admitted": 10, "rejected": 2, "rejected_inflight": 0,
                     "shed_deadline": 2, "max_inflight": 7, "policy": "deadline:200"},
                    {"admitted": 4, "rejected": 5, "rejected_inflight": 0,
                     "shed_deadline": 5, "max_inflight": 9, "policy": "deadline:200"}]
        merged = aggregate_admission(json.loads(json.dumps(stats)) for stats in replicas)
        assert merged == {"admitted": 14, "rejected": 7, "rejected_inflight": 0,
                          "shed_deadline": 7, "max_inflight": 9, "policy": "deadline:200"}


class _RejectAll(AdmissionPolicy):
    """Test stub: sheds every submission."""

    name = "reject-all"

    def _check(self, now):
        return "always rejected"


class TestSubmitPathIntegration:
    def test_shed_submission_fires_callback_with_rejected_result(self):
        sim, replicas, _, workload = one_client()
        replicas[0].admission = InflightLimit(max_inflight=1)
        results = []
        # Two back-to-back submissions: the first occupies the single
        # inflight slot, the second must be rejected synchronously.
        replicas[0].submit(workload.next_command(), callback=results.append)
        replicas[0].submit(workload.next_command(), callback=results.append)
        assert len(results) == 1  # no simulator time has passed yet
        assert results[0].rejected
        sim.run(until=500.0)
        assert len(results) == 2
        rejected = [result for result in results if result.rejected]
        assert len(rejected) == 1
        assert replicas[0].admission.stats.admitted == 1
        assert replicas[0].admission.stats.rejected == 1

    def test_execution_releases_the_inflight_slot(self):
        sim, replicas, _, workload = one_client()
        replicas[0].admission = InflightLimit(max_inflight=1)
        replicas[0].submit(workload.next_command(), callback=lambda result: None)
        sim.run(until=500.0)
        replicas[0].submit(workload.next_command(), callback=lambda result: None)
        assert replicas[0].admission.stats.admitted == 2
        assert replicas[0].admission.stats.rejected == 0

    def test_closed_loop_rejections_consume_the_command_budget(self):
        # A closed-loop client whose every command is shed must still
        # terminate: rejections consume loop slots instead of hanging the
        # client waiting for completions that will never come.
        sim, replicas, metrics, workload = one_client()
        replicas[0].admission = _RejectAll()
        client = ClosedLoopClient(0, replicas[0], workload, sim, metrics,
                                  max_commands=5)
        client.start()
        sim.run(until=1000.0)
        assert client.rejected == 5
        assert client.completed == 0
        assert metrics.count == 0

    def test_closed_loop_rejection_storm_backs_off_instead_of_recursing(self):
        # Regression: with a full inflight limit a rejected closed-loop
        # client used to resubmit synchronously inside the rejection
        # callback — same virtual instant, unbounded recursion.  The client
        # must back off and virtual time must keep advancing.
        sim, replicas, metrics, _ = one_client()
        replicas[0].admission = InflightLimit(max_inflight=1)
        pool = ClientPool()
        for i in range(4):
            workload = ConflictWorkload(i, 0, WorkloadConfig(), DeterministicRandom(i))
            pool.add(ClosedLoopClient(i, replicas[0], workload, sim, metrics, max_commands=None))
        pool.start_all()
        sim.run(until=500.0)
        pool.stop_all()
        assert sim.now >= 500.0
        assert pool.total_rejected > 0
        assert pool.total_completed > 0

    def test_open_loop_counts_rejections_without_sampling_them(self):
        sim, replicas, metrics, workload = one_client()
        replicas[0].admission = InflightLimit(max_inflight=1)
        client = OpenLoopClient(0, replicas[0], workload, sim, metrics,
                                rate_per_second=500.0, rng=DeterministicRandom(5),
                                stop_after_ms=None, fallback_replicas=None, history=None)
        client.start()
        sim.run(until=1000.0)
        client.stop()
        sim.run(until=1500.0)
        assert client.rejected > 0
        assert client.completed > 0
        assert metrics.count == client.completed
        assert client.completed + client.rejected <= client.submitted


class TestExperimentIntegration:
    def test_experiment_snapshot_reports_admission(self):
        config = ExperimentConfig(protocol="caesar", clients_per_site=2,
                                  open_loop=True, arrival_rate_per_client=60.0,
                                  duration_ms=800.0, warmup_ms=100.0, seed=4,
                                  admission="inflight:2")
        result = run_experiment(config)
        snapshot = result.cluster.admission_snapshot()
        assert snapshot is not None
        assert snapshot["policy"] == "inflight:2"
        assert snapshot["admitted"] > 0
        assert snapshot["rejected"] > 0

    def test_no_admission_means_no_snapshot(self):
        config = ExperimentConfig(protocol="caesar", clients_per_site=1,
                                  duration_ms=300.0, warmup_ms=0.0, seed=4)
        result = run_experiment(config)
        assert result.cluster.admission_snapshot() is None
