"""Cheap unit tests for reporting helpers, configs and small data structures.

These cover corner cases not exercised by the experiment-level tests and run
in microseconds (no simulation involved).
"""

from __future__ import annotations

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.config import CaesarConfig
from repro.core.messages import FastPropose, FastProposeReply, Stable
from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import format_protocol_stats, format_series, format_table
from repro.runtime.batching import BatchingConfig
from repro.runtime.costs import CostModel, zero_cost_model
from repro.runtime.stats import ProtocolStats
from tests.conftest import make_command


class TestFormatTable:
    def test_empty_rows(self):
        table = format_table("Empty", ["col"], [])
        assert "Empty" in table
        assert "col" in table

    def test_wide_cell_expands_column(self):
        table = format_table("T", ["x"], [["a-very-long-cell-value"]])
        header_line = table.splitlines()[1]
        assert len(header_line) >= len("a-very-long-cell-value")

    def test_float_formatting_one_decimal(self):
        table = format_table("T", ["x"], [[3.14159]])
        assert "3.1" in table and "3.14159" not in table

    def test_format_series_preserves_first_seen_x_order(self):
        series = {"a": {"z": 1.0, "y": 2.0}, "b": {"x": 3.0}}
        lines = format_series("T", series).splitlines()
        data_lines = lines[3:]
        first_column = [line.split("|")[0].strip() for line in data_lines]
        assert first_column == ["z", "y", "x"]


class TestFormatProtocolStats:
    def test_sums_the_replicas_and_prints_only_what_moved(self):
        stats = [ProtocolStats(fast_decisions=3, nacks_sent=1),
                 ProtocolStats(fast_decisions=2, retries=4)]
        assert format_protocol_stats(stats, title="counters").splitlines() == [
            "counters:",
            f"  {'fast decisions':<24} 5",
            f"  {'nacks sent':<24} 1",
            f"  {'retries':<24} 4"]

    def test_nothing_moved_renders_nothing(self):
        assert format_protocol_stats([ProtocolStats(), ProtocolStats()]) == ""
        assert format_protocol_stats([]) == ""


class TestConfigs:
    def test_caesar_config_defaults_match_paper_setup(self):
        config = CaesarConfig()
        assert config.wait_condition_enabled
        assert config.recovery_enabled
        assert config.fast_proposal_timeout_ms > 0

    def test_experiment_config_default_topology_is_none(self):
        config = ExperimentConfig()
        assert config.topology is None
        assert config.protocol == "caesar"
        assert 0.0 <= config.conflict_rate <= 1.0

    def test_zero_cost_model_is_free(self):
        model = zero_cost_model()
        assert model.message_cost("anything") == 0.0
        assert model.dependency_cost(100) == 0.0

    def test_self_message_discount_applied(self):
        model = CostModel(default_cost_ms=1.0, self_message_factor=0.5)
        assert model.message_cost("m", local=True) == pytest.approx(0.5)
        assert model.message_cost("m", local=False) == pytest.approx(1.0)

    def test_batching_config_defaults_sane(self):
        config = BatchingConfig()
        assert config.window_ms > 0
        assert config.max_messages > 1
        assert 0 < config.marginal_cost_factor < 1


class TestMessages:
    def test_messages_are_immutable(self):
        message = FastPropose(command=make_command(0, 0), ballot=Ballot.initial(0),
                              timestamp=LogicalTimestamp(1, 0))
        with pytest.raises(AttributeError):
            message.timestamp = LogicalTimestamp(2, 0)  # type: ignore[misc]

    def test_fast_propose_defaults_to_no_whitelist(self):
        message = FastPropose(command=make_command(0, 0), ballot=Ballot.initial(0),
                              timestamp=LogicalTimestamp(1, 0))
        assert message.whitelist is None

    def test_reply_round_trips_predecessor_set(self):
        predecessors = frozenset({(1, 2), (3, 4)})
        reply = FastProposeReply(command_id=(0, 0), ballot=Ballot.initial(0),
                                 timestamp=LogicalTimestamp(1, 0),
                                 predecessors=predecessors, ok=True)
        assert reply.predecessors == predecessors

    def test_stable_carries_command_body(self):
        command = make_command(0, 0, key="k")
        message = Stable(command=command, ballot=Ballot.initial(0),
                         timestamp=LogicalTimestamp(1, 0), predecessors=frozenset())
        assert message.command.key == "k"


class TestExperimentResultHelpers:
    def build_result(self, fast: int, slow: int) -> ExperimentResult:
        return ExperimentResult(config=ExperimentConfig(), cluster=None,
                                metrics=MetricsCollector(), measured_duration_ms=1000.0,
                                per_site_latency={}, overall_latency=None,
                                throughput_per_second=0.0, fast_decisions=fast,
                                slow_decisions=slow, consistency_violations=0)

    def test_slow_path_ratio(self):
        assert self.build_result(3, 1).slow_path_ratio == pytest.approx(0.25)

    def test_slow_path_ratio_none_without_decisions(self):
        assert self.build_result(0, 0).slow_path_ratio is None

    def test_site_mean_latency_missing_site(self):
        assert self.build_result(1, 0).site_mean_latency("virginia") is None
