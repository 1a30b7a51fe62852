"""Tests for the persistent results store and its report renderer."""

from __future__ import annotations

from repro.metrics.report import render_report
from repro.metrics.store import (GIT_COMMIT_ENV_VAR, ResultsStore,
                                 current_git_commit)


def make_store() -> ResultsStore:
    return ResultsStore(":memory:")


class TestRecordAndQuery:
    def test_run_roundtrip(self):
        with make_store() as store:
            run_id = store.record_run(
                "overload", "caesar-sweep", protocol="caesar", substrate="sim",
                seed=7, config={"offered_loads": [100, 200]},
                metrics={"peak_goodput": 95.0}, git_commit="abc1234",
                created_at="2026-08-07T00:00:00+00:00")
            run = store.latest_run()
            assert run.run_id == run_id
            assert run.kind == "overload"
            assert run.label == "caesar-sweep"
            assert run.protocol == "caesar"
            assert run.substrate == "sim"
            assert run.seed == 7
            assert run.git_commit == "abc1234"
            assert run.config == {"offered_loads": [100, 200]}
            assert run.metrics == {"peak_goodput": 95.0}

    def test_runs_newest_first_with_filters_and_limit(self):
        with make_store() as store:
            store.record_run("experiment", "fig7", git_commit="c1")
            store.record_run("overload", "knee", git_commit="c2")
            store.record_run("overload", "knee", git_commit="c3")
            assert [run.git_commit for run in store.runs()] == ["c3", "c2", "c1"]
            assert [run.git_commit for run in store.runs(kind="overload")] == ["c3", "c2"]
            assert len(store.runs(kind="overload", label="knee", limit=1)) == 1
            assert store.runs(label="missing") == []
            assert store.latest_run(kind="experiment").label == "fig7"
            assert store.latest_run(kind="bench") is None

    def test_load_points_in_sweep_order(self):
        with make_store() as store:
            run_id = store.record_run("overload", "knee")
            store.record_load_point(run_id, 1, offered_per_second=200.0,
                                    completed=150, goodput_per_second=150.0,
                                    p99_ms=80.0, extra={"admission": None})
            store.record_load_point(run_id, 0, offered_per_second=100.0,
                                    completed=99, goodput_per_second=99.0,
                                    p99_ms=40.0)
            points = store.load_points(run_id)
            assert [point.point_index for point in points] == [0, 1]
            assert points[1].offered_per_second == 200.0
            assert points[1].extra == {"admission": None}
            assert store.load_points(run_id + 1) == []

    def test_labels_are_distinct_and_sorted(self):
        with make_store() as store:
            store.record_run("bench", "BENCH_b.json")
            store.record_run("bench", "BENCH_a.json")
            store.record_run("bench", "BENCH_a.json")
            store.record_run("overload", "knee")
            assert store.labels() == ["BENCH_a.json", "BENCH_b.json", "knee"]
            assert store.labels(kind="bench") == ["BENCH_a.json", "BENCH_b.json"]

    def test_trend_is_oldest_first_with_missing_keys_none(self):
        with make_store() as store:
            store.record_run("overload", "knee", metrics={"peak_goodput": 90.0},
                             git_commit="old")
            store.record_run("overload", "knee", metrics={"peak_goodput": 95.0,
                                                          "p99_latency_ms": 120.0},
                             git_commit="new")
            trend = store.trend("knee", ["peak_goodput", "p99_latency_ms"])
            assert [entry["git_commit"] for entry in trend] == ["old", "new"]
            assert trend[0]["p99_latency_ms"] is None
            assert trend[1]["peak_goodput"] == 95.0

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "nested" / "store.db"
        with ResultsStore(path) as store:
            store.record_run("loadgen", "tcp", metrics={"completed": 42})
        with ResultsStore(path) as store:
            assert store.latest_run(kind="loadgen").metrics["completed"] == 42


class TestGitCommit:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(GIT_COMMIT_ENV_VAR, "deadbeef")
        assert current_git_commit() == "deadbeef"

    def test_recorded_runs_pick_up_the_override(self, monkeypatch):
        monkeypatch.setenv(GIT_COMMIT_ENV_VAR, "cafef00d")
        with make_store() as store:
            store.record_run("experiment", "fig7")
            assert store.latest_run().git_commit == "cafef00d"

    def test_outside_a_checkout_falls_back_to_unknown(self, monkeypatch, tmp_path):
        monkeypatch.delenv(GIT_COMMIT_ENV_VAR, raising=False)
        assert current_git_commit(cwd=tmp_path) == "unknown"


class TestRenderReport:
    def test_empty_store_renders_a_friendly_line(self):
        with make_store() as store:
            assert "no stored runs" in render_report(store)

    def test_runs_and_trend_tables_render(self):
        with make_store() as store:
            run_id = store.record_run(
                "overload", "knee", protocol="caesar", substrate="sim",
                metrics={"peak_goodput": 95.0, "p99_latency_ms": 120.0},
                git_commit="abc1234")
            store.record_load_point(run_id, 0, offered_per_second=100.0,
                                    completed=95, goodput_per_second=95.0,
                                    p99_ms=120.0)
            text = render_report(store, kind="overload", points=True)
            assert "knee" in text
            assert "abc1234" in text
            assert "caesar" in text
            assert "100" in text  # the load point's offered rate

    def test_label_filter_narrows_the_report(self):
        with make_store() as store:
            store.record_run("overload", "wanted", git_commit="aaa1111")
            store.record_run("overload", "other", git_commit="bbb2222")
            text = render_report(store, label="wanted")
            assert "aaa1111" in text
            assert "bbb2222" not in text
