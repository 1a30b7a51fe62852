"""Session-wide guard for every collection: ``pytest``, ``pytest tests/`` and
``pytest benchmarks/`` all load this file.

The committed figure tables and BENCH records under ``benchmarks/results/``
are written by one command, ``repro figure all --out benchmarks/results``;
no test writes them.  The session fingerprints every file there when it
starts — size, ``mtime_ns`` and sha256 — and fails if any file was added,
removed or touched by the time it ends, a rewrite with the same bytes
included.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "benchmarks" / "results"

_FINGERPRINTS = pytest.StashKey[dict]()


def fingerprint(directory: pathlib.Path) -> dict:
    """``{relative path: (size, mtime_ns, sha256)}`` of every file under ``directory``."""
    prints = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            stat = path.stat()
            prints[path.relative_to(directory).as_posix()] = (
                stat.st_size, stat.st_mtime_ns, hashlib.sha256(path.read_bytes()).hexdigest())
    return prints


def pytest_sessionstart(session: pytest.Session) -> None:
    session.config.stash[_FINGERPRINTS] = fingerprint(RESULTS_DIR)


def pytest_sessionfinish(session: pytest.Session) -> None:
    before = session.config.stash.get(_FINGERPRINTS, None)
    if before is None:
        return
    after = fingerprint(RESULTS_DIR)
    changed = sorted(name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name))
    if not changed:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write("\n")
        reporter.write_sep("=", f"benchmarks/results/ was written during the session: "
                                f"{', '.join(changed)}", red=True, bold=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
