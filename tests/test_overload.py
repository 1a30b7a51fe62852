"""Tests for the overload / saturation sweep driver.

Covers the config plumbing, the knee estimate, the in-window goodput
accounting, and the headline claim of the overload-to-SLO study: past the
knee, admission control bounds the p99 tail at a small (<10%) goodput cost
relative to the unprotected baseline's peak.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_config, build_parser
from repro.harness.overload import (KNEE_GOODPUT_FRACTION, LoadPoint,
                                    OverloadConfig, OverloadResult,
                                    run_overload_sweep)


def make_point(offered: float, goodput: float, **overrides) -> LoadPoint:
    kwargs = dict(offered_per_second=offered, submitted=int(offered),
                  completed=int(goodput), rejected=0,
                  goodput_per_second=goodput, mean_latency_ms=50.0,
                  p50_latency_ms=40.0, p99_latency_ms=90.0,
                  p999_latency_ms=120.0)
    kwargs.update(overrides)
    return LoadPoint(**kwargs)


class TestConfig:
    def test_flags_map_onto_the_config(self):
        args = build_parser().parse_args(
            ["overload", "--protocol", "epaxos", "--substrate", "tcp", "--seed", "9",
             "--clients", "5", "--replicas", "4", "--duration", "1500",
             "--admission", "inflight:8", "--workers", "2", "--offered", "100", "400",
             "--conflicts", "10", "--warmup-ms", "250"])
        config = build_config(OverloadConfig, args,
                              offered_loads=tuple(args.offered))
        assert config.protocol == "epaxos"
        assert config.substrate == "tcp"
        assert config.offered_loads == (100.0, 400.0)
        assert config.conflict_rate == pytest.approx(0.10)
        assert config.warmup_ms == 250.0
        assert config.clients == 5
        assert config.replicas == 4
        assert config.admission == "inflight:8"

    def test_defaults_survive_missing_flags(self):
        config = build_config(OverloadConfig, argparse.Namespace())
        assert config.protocol == "caesar"
        assert config.substrate == "sim"
        assert config.offered_loads == (200.0, 400.0, 800.0, 1600.0)

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError, match="unknown substrate"):
            run_overload_sweep(OverloadConfig(substrate="carrier-pigeon"))


class TestResultShape:
    def test_saturation_flag_and_knee(self):
        result = OverloadResult(config=OverloadConfig(), points=[
            make_point(100.0, 99.0),
            make_point(200.0, 150.0),  # 0.75 of offered: saturated
            make_point(400.0, 160.0),
        ])
        assert not result.points[0].saturated
        assert result.points[1].saturated
        assert result.knee_offered_per_second == 200.0
        assert result.peak_goodput == 160.0

    def test_knee_is_none_when_never_saturated(self):
        result = OverloadResult(config=OverloadConfig(), points=[
            make_point(100.0, 99.0)])
        assert result.knee_offered_per_second is None
        assert "never saturated" in result.table()

    def test_table_and_summary_metrics(self):
        result = OverloadResult(config=OverloadConfig(admission="deadline:200"),
                                points=[make_point(100.0, 99.0),
                                        make_point(400.0, 300.0, rejected=80)])
        table = result.table()
        assert "deadline:200" in table
        assert "goodput/s" in table
        metrics = result.summary_metrics()
        assert metrics["points"] == 2
        assert metrics["peak_goodput"] == 300.0
        assert metrics["knee_offered_per_second"] == 400.0
        assert metrics["max_offered_per_second"] == 400.0
        assert metrics["rejected"] == 80

    def test_point_as_dict_is_json_shaped(self):
        payload = make_point(100.0, 99.0).as_dict()
        assert payload["offered_per_second"] == 100.0
        assert payload["goodput_per_second"] == 99.0
        assert "p999_latency_ms" in payload


class TestSimSweep:
    def test_quick_point_counts_and_baseline_accounting(self):
        config = OverloadConfig(offered_loads=(150.0,), duration_ms=800.0,
                                warmup_ms=200.0, seed=2)
        result = run_overload_sweep(config)
        (point,) = result.points
        assert point.submitted > 0
        assert 0 < point.completed <= point.submitted
        assert point.goodput_per_second > 0
        assert point.p50_latency_ms <= point.p99_latency_ms <= point.p999_latency_ms
        # The driver installs the counting baseline so even an admission-free
        # sweep reports submitted/rejected.
        assert point.admission["policy"] == "none"
        assert point.rejected == 0

    def test_sweep_is_deterministic(self):
        config = OverloadConfig(offered_loads=(150.0,), duration_ms=800.0,
                                warmup_ms=200.0, seed=2)
        first = run_overload_sweep(config)
        second = run_overload_sweep(config)
        assert [p.as_dict() for p in first.points] == [p.as_dict() for p in second.points]


@pytest.mark.slow
class TestOverloadToSlo:
    """The study's acceptance criterion, pinned as a regression test."""

    def run(self, admission):
        return run_overload_sweep(OverloadConfig(
            offered_loads=(600.0, 1200.0), duration_ms=2000.0, warmup_ms=500.0,
            seed=3, admission=admission))

    def test_admission_bounds_p99_past_the_knee_at_small_goodput_cost(self):
        baseline = self.run(None)
        guarded = self.run("deadline:200")

        # The unprotected sweep saturates: in-window goodput at 1200 offered/s
        # falls below the knee fraction and the tail blows up into seconds.
        assert baseline.knee_offered_per_second == 1200.0
        overloaded = baseline.points[1]
        assert overloaded.offered_per_second == 1200.0
        assert overloaded.goodput_per_second < KNEE_GOODPUT_FRACTION * 1200.0
        assert overloaded.p99_latency_ms > 1000.0

        # With queue-deadline shedding the same offered load keeps a bounded
        # tail (an order of magnitude-ish lower) ...
        protected = guarded.points[1]
        assert protected.rejected > 0
        assert protected.p99_latency_ms < 500.0
        assert protected.p99_latency_ms < overloaded.p99_latency_ms / 2
        # ... while goodput stays within 10% of the baseline's peak.
        assert protected.goodput_per_second >= 0.9 * baseline.peak_goodput

