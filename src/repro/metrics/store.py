"""Persistent, queryable results store for experiment and loadgen runs.

The BENCH_*.json records under ``benchmarks/results/`` capture one
deterministic snapshot per figure per commit (series and event counts, no
wall clock) — useless for questions like "how did caesar's p99 at 2x the
knee move over the last five commits" or "did this commit make the sweep
faster on this machine".
:class:`ResultsStore` answers those: an append-only SQLite database (stdlib
``sqlite3``, no new dependencies) that every ``repro run`` / ``sweep`` /
``loadgen`` / ``overload`` invocation can append to, keyed by git commit.

Two tables:

* ``runs`` — one row per invocation: kind (``experiment`` / ``sweep`` /
  ``loadgen`` / ``overload`` / ``bench``), a free-form label, protocol,
  substrate (``sim`` / ``tcp``), seed, git commit, and the full config and
  metrics payloads as JSON;
* ``load_points`` — one row per offered-load point of an overload sweep
  (offered rate, submitted/completed/rejected counts, goodput, latency
  percentiles), so saturation curves are queryable without re-parsing JSON.

``repro report`` (:mod:`repro.metrics.report`) renders both as trend tables.
The store is the only place a ``bench`` run's wall-clock numbers are kept
(:meth:`repro.metrics.perf.PerfRecord.timing`); it is a local, untracked
file, and nothing else reads it.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import sqlite3
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Default on-disk location (repo-relative, gitignored).
DEFAULT_STORE_PATH = pathlib.Path("benchmarks/results/store.db")

#: Environment variable overriding the commit recorded with each run — CI
#: sets it so records key on the commit under test even in detached or
#: shallow checkouts.
GIT_COMMIT_ENV_VAR = "REPRO_GIT_COMMIT"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at  TEXT NOT NULL,
    kind        TEXT NOT NULL,
    label       TEXT NOT NULL,
    protocol    TEXT,
    substrate   TEXT,
    seed        INTEGER,
    git_commit  TEXT,
    config      TEXT NOT NULL DEFAULT '{}',
    metrics     TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_runs_kind_label ON runs (kind, label, run_id);
CREATE TABLE IF NOT EXISTS load_points (
    run_id              INTEGER NOT NULL REFERENCES runs (run_id),
    point_index         INTEGER NOT NULL,
    offered_per_second  REAL,
    submitted           INTEGER,
    completed           INTEGER,
    rejected            INTEGER,
    goodput_per_second  REAL,
    mean_ms             REAL,
    p50_ms              REAL,
    p99_ms              REAL,
    p999_ms             REAL,
    extra               TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, point_index)
);
"""


def current_git_commit(cwd: Optional[pathlib.Path] = None) -> str:
    """Short commit hash to key stored runs on.

    Resolution order: :data:`GIT_COMMIT_ENV_VAR`, then ``git rev-parse``,
    then the literal ``"unknown"`` (the store must never make a run fail
    just because it executed outside a checkout).
    """
    override = os.environ.get(GIT_COMMIT_ENV_VAR)
    if override:
        return override
    try:
        output = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=cwd, capture_output=True, text=True, timeout=10)
        if output.returncode == 0 and output.stdout.strip():
            return output.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


@dataclass(frozen=True)
class RunRecord:
    """One stored run (a row of ``runs``, JSON payloads decoded)."""

    run_id: int
    created_at: str
    kind: str
    label: str
    protocol: Optional[str]
    substrate: Optional[str]
    seed: Optional[int]
    git_commit: Optional[str]
    config: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class LoadPointRecord:
    """One stored offered-load point (a row of ``load_points``)."""

    run_id: int
    point_index: int
    offered_per_second: Optional[float]
    submitted: Optional[int]
    completed: Optional[int]
    rejected: Optional[int]
    goodput_per_second: Optional[float]
    mean_ms: Optional[float]
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    p999_ms: Optional[float]
    extra: Dict[str, object] = field(default_factory=dict)


class ResultsStore:
    """Append/query interface over the SQLite results database.

    Args:
        path: database file; parent directories are created, and the schema
            is applied idempotently on open.  ``":memory:"`` works for tests.
    """

    def __init__(self, path: pathlib.Path | str = DEFAULT_STORE_PATH) -> None:
        self.path = pathlib.Path(path) if str(path) != ":memory:" else path
        if isinstance(self.path, pathlib.Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(self.path))
        self._connection.executescript(_SCHEMA)
        self._connection.commit()

    # ------------------------------------------------------------- appending

    def record_run(self, kind: str, label: str, *, protocol: Optional[str] = None,
                   substrate: Optional[str] = None, seed: Optional[int] = None,
                   config: Optional[Dict[str, object]] = None,
                   metrics: Optional[Dict[str, object]] = None,
                   git_commit: Optional[str] = None,
                   created_at: Optional[str] = None) -> int:
        """Append one run row; returns its ``run_id``.

        ``git_commit`` defaults to :func:`current_git_commit` and
        ``created_at`` to the current UTC time — pass them explicitly for
        reproducible fixtures.
        """
        if git_commit is None:
            git_commit = current_git_commit()
        if created_at is None:
            created_at = datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")
        cursor = self._connection.execute(
            "INSERT INTO runs (created_at, kind, label, protocol, substrate, seed,"
            " git_commit, config, metrics) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (created_at, kind, label, protocol, substrate, seed, git_commit,
             json.dumps(config or {}, sort_keys=True),
             json.dumps(metrics or {}, sort_keys=True)))
        self._connection.commit()
        return int(cursor.lastrowid)

    def record_load_point(self, run_id: int, point_index: int, *,
                          offered_per_second: Optional[float] = None,
                          submitted: Optional[int] = None,
                          completed: Optional[int] = None,
                          rejected: Optional[int] = None,
                          goodput_per_second: Optional[float] = None,
                          mean_ms: Optional[float] = None,
                          p50_ms: Optional[float] = None,
                          p99_ms: Optional[float] = None,
                          p999_ms: Optional[float] = None,
                          extra: Optional[Dict[str, object]] = None) -> None:
        """Append one offered-load point belonging to run ``run_id``."""
        self._connection.execute(
            "INSERT INTO load_points (run_id, point_index, offered_per_second,"
            " submitted, completed, rejected, goodput_per_second, mean_ms, p50_ms,"
            " p99_ms, p999_ms, extra) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (run_id, point_index, offered_per_second, submitted, completed, rejected,
             goodput_per_second, mean_ms, p50_ms, p99_ms, p999_ms,
             json.dumps(extra or {}, sort_keys=True)))
        self._connection.commit()

    # -------------------------------------------------------------- querying

    def runs(self, kind: Optional[str] = None, label: Optional[str] = None,
             limit: Optional[int] = None) -> List[RunRecord]:
        """Stored runs, newest first, optionally filtered by kind and label."""
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        query = ("SELECT run_id, created_at, kind, label, protocol, substrate,"
                 " seed, git_commit, config, metrics FROM runs")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY run_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        rows = self._connection.execute(query, params).fetchall()
        return [RunRecord(run_id=row[0], created_at=row[1], kind=row[2], label=row[3],
                          protocol=row[4], substrate=row[5], seed=row[6],
                          git_commit=row[7], config=json.loads(row[8]),
                          metrics=json.loads(row[9]))
                for row in rows]

    def latest_run(self, kind: Optional[str] = None,
                   label: Optional[str] = None) -> Optional[RunRecord]:
        """The most recent stored run matching the filters (or ``None``)."""
        matches = self.runs(kind=kind, label=label, limit=1)
        return matches[0] if matches else None

    def load_points(self, run_id: int) -> List[LoadPointRecord]:
        """The offered-load points of one run, in sweep order."""
        rows = self._connection.execute(
            "SELECT run_id, point_index, offered_per_second, submitted, completed,"
            " rejected, goodput_per_second, mean_ms, p50_ms, p99_ms, p999_ms, extra"
            " FROM load_points WHERE run_id = ? ORDER BY point_index",
            (run_id,)).fetchall()
        return [LoadPointRecord(run_id=row[0], point_index=row[1],
                                offered_per_second=row[2], submitted=row[3],
                                completed=row[4], rejected=row[5],
                                goodput_per_second=row[6], mean_ms=row[7],
                                p50_ms=row[8], p99_ms=row[9], p999_ms=row[10],
                                extra=json.loads(row[11]))
                for row in rows]

    def labels(self, kind: Optional[str] = None) -> List[str]:
        """Distinct run labels (optionally within one kind), alphabetical."""
        if kind is None:
            rows = self._connection.execute(
                "SELECT DISTINCT label FROM runs ORDER BY label").fetchall()
        else:
            rows = self._connection.execute(
                "SELECT DISTINCT label FROM runs WHERE kind = ? ORDER BY label",
                (kind,)).fetchall()
        return [row[0] for row in rows]

    def trend(self, label: str, metric_keys: Sequence[str],
              kind: Optional[str] = None, limit: int = 20) -> List[Dict[str, object]]:
        """Per-run metric extracts for one label, oldest first.

        Each entry carries the run's identity columns plus the requested
        ``metric_keys`` looked up in its metrics JSON (missing keys map to
        ``None``) — the raw material of the cross-commit trend tables.
        """
        entries = []
        for run in reversed(self.runs(kind=kind, label=label, limit=limit)):
            entry: Dict[str, object] = {
                "run_id": run.run_id, "created_at": run.created_at,
                "git_commit": run.git_commit, "kind": run.kind,
                "protocol": run.protocol, "substrate": run.substrate,
            }
            for key in metric_keys:
                entry[key] = run.metrics.get(key)
            entries.append(entry)
        return entries

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
