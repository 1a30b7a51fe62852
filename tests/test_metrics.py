"""Unit tests for metrics collection and summary statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import (
    percentile,
    summarize_latencies,
    throughput_timeline,
)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_single_value(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False,
                              allow_subnormal=False), min_size=1, max_size=100))
    def test_percentile_bounded_by_min_max(self, values):
        for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
            result = percentile(values, fraction)
            assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False,
                              allow_subnormal=False), min_size=2, max_size=100))
    def test_percentile_monotone_in_fraction(self, values):
        assert percentile(values, 0.25) <= percentile(values, 0.75)


class TestSummaries:
    def test_summary_fields(self):
        summary = summarize_latencies([10.0, 20.0, 30.0, 40.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(25.0)
        assert summary.minimum == 10.0
        assert summary.maximum == 40.0
        assert summary.median == pytest.approx(25.0)

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([])

    def test_p999_interpolates_between_top_order_statistics(self):
        # With n=10 the 99.9th percentile sits at position 0.999 * 9 = 8.991,
        # between the two largest samples — interpolation, not a crash or a
        # silent clamp to the maximum.
        summary = summarize_latencies([float(v) for v in range(1, 11)])
        assert summary.p999 == pytest.approx(9.991)
        assert summary.p99 <= summary.p999 <= summary.maximum

    def test_p999_degenerates_to_the_sample_for_tiny_inputs(self):
        assert summarize_latencies([42.0]).p999 == 42.0

    def test_summary_str_mentions_p999(self):
        assert "p999=" in str(summarize_latencies([5.0, 15.0]))

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False,
                              allow_subnormal=False), min_size=1, max_size=200))
    def test_p999_dominates_p99(self, values):
        summary = summarize_latencies(values)
        assert summary.p99 <= summary.p999 <= summary.maximum


class TestThroughputTimeline:
    def test_buckets_counted_per_second(self):
        completions = [100.0, 200.0, 900.0, 1100.0, 1900.0]
        series = throughput_timeline(completions, end_ms=2000.0)
        assert series[0] == (0.0, 3.0)
        assert series[1] == (1000.0, 2.0)

    def test_empty_input(self):
        series = throughput_timeline([], end_ms=2000.0)
        assert all(rate == 0.0 for _, rate in series)

    def test_out_of_window_samples_ignored(self):
        series = throughput_timeline([50.0, 5000.0], end_ms=2000.0)
        assert sum(rate for _, rate in series) == pytest.approx(1.0)

    def test_partial_last_bucket_scaled_by_actual_width(self):
        # Regression: a 2.5s window with 1s buckets leaves a 500ms-wide final
        # bucket.  Its 3 completions are 6 commands/second over the width it
        # actually spans — dividing by the nominal 1000ms used to dilute the
        # edge of every timeline whose window was not a bucket multiple.
        completions = [2100.0, 2200.0, 2400.0]
        series = throughput_timeline(completions, end_ms=2500.0)
        assert [start for start, _ in series] == [0.0, 1000.0, 2000.0]
        assert series[-1][1] == pytest.approx(6.0)

    def test_sample_on_window_end_counts_in_final_bucket(self):
        series = throughput_timeline([2500.0], end_ms=2500.0)
        assert series[-1][1] == pytest.approx(2.0)  # 1 command over 500ms

    def test_full_buckets_unaffected_by_scaling(self):
        completions = [500.0, 1500.0]
        series = throughput_timeline(completions, end_ms=2000.0)
        assert series == [(0.0, 1.0), (1000.0, 1.0)]


class TestCollector:
    def test_warmup_samples_discarded(self):
        collector = MetricsCollector(warmup_ms=1000.0)
        collector.record_command(origin=0, proposer=0, latency_ms=10.0, completed_at=500.0,
                                 key="k")
        collector.record_command(origin=0, proposer=0, latency_ms=10.0, completed_at=1500.0,
                                 key="k")
        assert collector.count == 1
        assert collector.discarded == 1

    def test_sample_on_warmup_boundary_is_kept(self):
        collector = MetricsCollector(warmup_ms=1000.0)
        collector.record_command(origin=0, proposer=0, latency_ms=5.0,
                                 completed_at=1000.0, key="k")
        assert collector.count == 1
        assert collector.discarded == 0

    def test_zero_warmup_keeps_everything(self):
        collector = MetricsCollector(warmup_ms=0.0)
        collector.record_command(origin=0, proposer=0, latency_ms=5.0,
                                 completed_at=0.0, key="k")
        assert collector.count == 1
        assert collector.discarded == 0

    def test_per_origin_filtering(self):
        collector = MetricsCollector()
        collector.record_command(origin=0, proposer=0, latency_ms=10.0, completed_at=1.0, key="k")
        collector.record_command(origin=1, proposer=1, latency_ms=30.0, completed_at=2.0, key="k")
        assert collector.latencies(origin=0) == [10.0]
        assert collector.latencies(origin=None) == [10.0, 30.0]
        summaries = collector.per_origin_summaries()
        assert set(summaries) == {0, 1}
        assert summaries[1].mean == pytest.approx(30.0)

    def test_summary_none_when_empty(self):
        assert MetricsCollector().summary() is None

    def test_throughput_requires_positive_duration(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.throughput(0.0)

    def test_throughput_per_second(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.record_command(origin=0, proposer=0, latency_ms=1.0,
                                     completed_at=float(i), key="k")
        assert collector.throughput(duration_ms=2000.0) == pytest.approx(5.0)

    def test_timeline_delegates_to_stats(self):
        collector = MetricsCollector()
        collector.record_command(origin=0, proposer=0, latency_ms=1.0, completed_at=100.0,
                                 key="k")
        collector.record_command(origin=0, proposer=0, latency_ms=1.0, completed_at=1500.0,
                                 key="k")
        series = collector.timeline(end_ms=2000.0)
        assert series == throughput_timeline([100.0, 1500.0], end_ms=2000.0)
        assert series == [(0.0, 1.0), (1000.0, 1.0)]
