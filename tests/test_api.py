"""The ``repro.api`` facade: one import surface for external callers."""

from __future__ import annotations

import argparse

import pytest

from repro import api
from repro.cli import build_config


class TestFacadeSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_all_is_sorted_within_sections(self):
        # Entry points, configs, and building blocks are distinct sections;
        # just assert no duplicates and everything public is listed.
        assert len(api.__all__) == len(set(api.__all__))

    def test_entry_points_are_callable(self):
        for name in ("run_experiment", "run_sweep", "run_chaos",
                     "serve_cluster", "run_loadgen", "serve_replica"):
            assert callable(getattr(api, name)), name

    def test_protocol_registry_is_exposed(self):
        for protocol in ("caesar", "epaxos", "multipaxos", "mencius", "m2paxos"):
            assert protocol in api.PROTOCOLS


class TestBuildConfig:
    """Every facade config builds from the CLI's flag table."""

    def _namespace(self, **extra):
        base = dict(protocol="caesar", seed=9, clients=4, conflicts=25.0,
                    duration=4000.0, recovery=False)
        base.update(extra)
        return argparse.Namespace(**base)

    def test_experiment_config_from_flags(self):
        config = build_config(api.ExperimentConfig, self._namespace())
        assert config.protocol == "caesar"
        assert config.seed == 9
        assert config.clients_per_site == 4
        assert config.conflict_rate == 0.25
        assert config.duration_ms == 4000.0

    def test_experiment_config_overrides_win(self):
        config = build_config(api.ExperimentConfig, self._namespace(),
                              protocol="mencius", seed=1)
        assert config.protocol == "mencius"
        assert config.seed == 1

    def test_chaos_config_from_flags(self):
        args = self._namespace(nemesis="minority-partition", fault_at=None,
                               hold=None, quick=True)
        config = build_config(api.ChaosConfig, args)
        assert config.schedule == "minority-partition"
        assert config.seed == 9

    def test_serve_config_from_flags(self):
        args = self._namespace(replicas=5, host="0.0.0.0", peer=None)
        config = build_config(api.ServeConfig, args)
        assert config.replicas == 5
        assert config.host == "0.0.0.0"

    def test_a_config_refuses_what_a_flag_would(self):
        # The facade gets the same checks as the CLI: they live in the configs.
        with pytest.raises(ValueError, match="conflict_rate"):
            api.ExperimentConfig(conflict_rate=1.5)
        with pytest.raises(ValueError, match="clients"):
            api.ChaosConfig(clients_per_site=0)
        with pytest.raises(ValueError, match="open-loop rate"):
            api.LoadgenConfig(endpoints={}, open_loop=True, rate_per_client=0.0)
        with pytest.raises(ValueError, match="warmup_ms"):
            api.OverloadConfig(warmup_ms=-1.0)

    def test_run_experiment_smoke_through_facade(self):
        result = api.run_experiment(api.ExperimentConfig(
            protocol="multipaxos", clients_per_site=2, duration_ms=1200,
            warmup_ms=200, seed=5))
        assert result.metrics.count > 0
        assert result.throughput_per_second > 0
        assert result.consistency_violations == 0
