"""The root ``conftest.py`` write guard over ``benchmarks/results/``.

``fingerprint`` must tell apart every change a test could make to a committed
record — new bytes of the same size, the same bytes rewritten, a file added or
removed, one in a subdirectory — and a session that makes one must exit
non-zero even when every test in it passed.  The session checks run a copy of
the guard in a throwaway tree, so they never touch the real records.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT_CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "conftest.py"


def _load_guard():
    spec = importlib.util.spec_from_file_location("results_write_guard", ROOT_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guard = _load_guard()


@pytest.fixture
def records(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "BENCH_a.json").write_text('{"series": {"x": 1.0}}\n')
    (directory / "a.txt").write_text("table a\n")
    return directory


class TestFingerprint:
    def test_an_untouched_directory_fingerprints_the_same(self, records):
        assert guard.fingerprint(records) == guard.fingerprint(records)
        assert sorted(guard.fingerprint(records)) == ["BENCH_a.json", "a.txt"]

    def test_new_bytes_of_the_same_size_are_seen(self, records):
        path = records / "a.txt"
        before = guard.fingerprint(records)
        stat = path.stat()
        path.write_text("table b\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = guard.fingerprint(records)
        assert after["a.txt"][:2] == before["a.txt"][:2]
        assert after["a.txt"] != before["a.txt"]
        assert after["BENCH_a.json"] == before["BENCH_a.json"]

    def test_the_same_bytes_rewritten_are_seen(self, records):
        path = records / "a.txt"
        before = guard.fingerprint(records)
        stat = path.stat()
        path.write_bytes(path.read_bytes())
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        after = guard.fingerprint(records)
        assert after["a.txt"][0] == before["a.txt"][0]
        assert after["a.txt"][2] == before["a.txt"][2]
        assert after["a.txt"] != before["a.txt"]

    def test_an_added_file_is_seen(self, records):
        before = guard.fingerprint(records)
        (records / "BENCH_b.json").write_text("{}\n")
        assert set(guard.fingerprint(records)) - set(before) == {"BENCH_b.json"}

    def test_a_removed_file_is_seen(self, records):
        before = guard.fingerprint(records)
        (records / "a.txt").unlink()
        assert set(before) - set(guard.fingerprint(records)) == {"a.txt"}

    def test_a_file_in_a_subdirectory_is_fingerprinted(self, records):
        (records / "nested").mkdir()
        (records / "nested" / "c.txt").write_text("c\n")
        assert "nested/c.txt" in guard.fingerprint(records)


def _run_session(tmp_path: pathlib.Path, body: str) -> subprocess.CompletedProcess:
    """Run ``pytest tests/test_probe.py`` in a tree holding a copy of the guard,
    one ``benchmarks/results/`` record and a probe test whose body is ``body``.
    Installed plugins stay unloaded: the guard needs none, and loading them
    takes most of a second per run."""
    shutil.copy(ROOT_CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    (results / "BENCH_probe.json").write_text('{"series": {}}\n')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "import os, pathlib\n"
        "RECORD = pathlib.Path(__file__).parent.parent / 'benchmarks' / 'results' / 'BENCH_probe.json'\n"
        "def test_probe():\n"
        f"    {body}\n")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})


class TestSession:
    def test_a_session_that_only_reads_the_records_passes(self, tmp_path):
        run = _run_session(tmp_path, "assert RECORD.read_text()")
        assert run.returncode == 0, run.stdout + run.stderr
        assert "was written during the session" not in run.stdout

    def test_a_passing_session_that_rewrites_a_record_fails_and_names_it(self, tmp_path):
        run = _run_session(tmp_path, "RECORD.write_text('{\"series\": {\"x\": 1}}\\n')")
        assert "1 passed" in run.stdout
        assert run.returncode == 1, run.stdout + run.stderr
        assert "benchmarks/results/ was written during the session: BENCH_probe.json" in run.stdout

    def test_a_session_that_only_touches_a_record_fails(self, tmp_path):
        run = _run_session(
            tmp_path, "os.utime(RECORD, ns=(0, RECORD.stat().st_mtime_ns + 10**9))")
        assert "1 passed" in run.stdout
        assert run.returncode == 1, run.stdout + run.stderr
