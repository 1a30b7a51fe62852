"""Microbenchmark of the decision-path data structures.

Times the three operations the ordering layer performs per proposal —
predecessor computation, wait-condition evaluation/notification, and the
history UPDATE — at several per-key bucket sizes, for both the optimized
implementations (interned bitsets, timestamp-sorted buckets, incremental
wait bookkeeping; :mod:`repro.core.history` / :mod:`repro.core.predecessors`)
and the naive reference implementations kept in
``tests/reference_decision_path.py``.

Because both variants run interleaved in the same process on the same data,
the reported speedups are meaningful even on noisy shared hosts (each
sample is a best-of-``REPS`` minimum).  Every number here is wall-clock, so
the per-size speedup table is printed (``pytest -s``), not written to a
tracked file; the optimized-vs-reference ratios are asserted — the ratchet
that reverting the bitsets trips.  (Delivery and the wire codec have no row
here: their end-to-end cost is gated by CI's two layer-share gates on
``bench/run.py --trace 1``.)
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from tests.reference_decision_path import (ReferenceCommandHistory, ReferenceWaitManager,
                                           reference_compute_predecessors)

#: Per-key bucket sizes the operations are timed at.
BUCKET_SIZES = (64, 256, 1024)

#: Best-of-N repetitions per sample (defends against scheduler noise).
REPS = 3

#: Parked proposals / finalized entries in the wait-path sample.
PARKED = 8
NOTIFIES = 64

BALLOT = Ballot.initial(0)


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


def make_commands(count: int, key: str = "hot") -> list:
    return [Command(command_id=(0, seq), key=key, operation="put",
                    value=f"v{seq}", origin=0) for seq in range(count)]


def fill(history, commands, status=CommandStatus.FAST_PENDING) -> None:
    """Insert ``commands`` with timestamps 1..N on their shared key."""
    for offset, command in enumerate(commands):
        history.update(command, ts(offset + 1), set(), status, BALLOT)


def best_of(fn: Callable[[], int]) -> tuple:
    """Run ``fn`` (which returns an op count) REPS times; (ops, min seconds)."""
    ops = 0
    best = float("inf")
    for _ in range(REPS):
        started = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return ops, best


# ----------------------------------------------------------- the three shapes

def time_compute_predecessors(size: int) -> Dict[str, float]:
    """Predecessors of a fresh command proposed after ``size`` bucket entries."""
    commands = make_commands(size)
    probe = Command(command_id=(1, 0), key="hot", operation="put", value="p",
                    origin=0)
    probe_ts = ts(size + 1)
    iterations = 2000

    optimized = CommandHistory()
    fill(optimized, commands)
    optimized.intern(probe.command_id, probe.key)

    def run_optimized() -> int:
        for _ in range(iterations):
            compute_predecessor_mask(optimized, probe, probe_ts)
        return iterations

    reference = ReferenceCommandHistory()
    fill(reference, commands)

    def run_reference() -> int:
        for _ in range(iterations):
            reference_compute_predecessors(reference, probe, probe_ts, None)
        return iterations

    ops, seconds = best_of(run_optimized)
    ref_ops, ref_seconds = best_of(run_reference)
    return {"optimized": ops / seconds, "reference": ref_ops / ref_seconds}


def time_history_update(size: int) -> Dict[str, float]:
    """Cost of growing one key's bucket from empty to ``size`` entries."""
    commands = make_commands(size)

    def run_optimized() -> int:
        history = CommandHistory()
        fill(history, commands)
        return size

    def run_reference() -> int:
        history = ReferenceCommandHistory()
        fill(history, commands)
        return size

    ops, seconds = best_of(run_optimized)
    ref_ops, ref_seconds = best_of(run_reference)
    return {"optimized": ops / seconds, "reference": ref_ops / ref_seconds}


def time_wait_notify(size: int) -> Dict[str, float]:
    """Wait-condition bookkeeping: park PARKED proposals on a bucket of
    ``size`` blockers, then finalize NOTIFIES of them one by one.

    The optimized manager reclassifies just the changed entry per
    notification; the reference manager re-scans every parked proposal's
    whole bucket — the gap grows with the bucket size.
    """
    commands = make_commands(size)
    proposals = [Command(command_id=(2, seq), key="hot", operation="put",
                         value="w", origin=0) for seq in range(PARKED)]
    notifies = min(NOTIFIES, size)

    def run_optimized() -> int:
        history = CommandHistory()
        fill(history, commands)
        manager = WaitManager(history, lambda: 0.0)
        for proposal in proposals:
            manager.evaluate(proposal, ts(0, 1), lambda ok, waited: None)
        assert manager.parked_count() == PARKED
        for command in commands[:notifies]:
            entry = history.update(command, history.get(command.command_id).timestamp,
                                   set(), CommandStatus.STABLE, BALLOT)
            manager.notify_entry(entry)
        return PARKED + notifies

    def run_reference() -> int:
        history = ReferenceCommandHistory()
        fill(history, commands)
        manager = ReferenceWaitManager(history, lambda: 0.0)
        for proposal in proposals:
            manager.evaluate(proposal, ts(0, 1), lambda ok, waited: None)
        assert manager.parked_count() == PARKED
        for command in commands[:notifies]:
            history.update(command, history.get(command.command_id).timestamp,
                           set(), CommandStatus.STABLE, BALLOT)
            manager.notify_change(command.key)
        return PARKED + notifies

    ops, seconds = best_of(run_optimized)
    ref_ops, ref_seconds = best_of(run_reference)
    return {"optimized": ops / seconds, "reference": ref_ops / ref_seconds}


OPERATIONS = {
    "compute_predecessors": time_compute_predecessors,
    "history_update": time_history_update,
    "wait_evaluate_notify": time_wait_notify,
}


def test_decision_path_microbench():
    """Ops/second of the decision-path operations, optimized vs reference."""
    samples: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name, timer in OPERATIONS.items():
        samples[name] = {size: timer(size) for size in BUCKET_SIZES}

    lines = [f"{'operation':<24} {'bucket':>6} {'optimized/s':>14} "
             f"{'reference/s':>14} {'speedup':>8}"]
    for name, sizes in samples.items():
        for size, cell in sizes.items():
            speedup = cell["optimized"] / cell["reference"]
            lines.append(f"{name:<24} {size:>6} {cell['optimized']:>14,.0f} "
                         f"{cell['reference']:>14,.0f} {speedup:>7.1f}x")
    print("\n" + "\n".join(lines))

    # The algorithmic wins must show at the largest bucket size: predecessor
    # computation is O(suffix) instead of O(bucket), and a wait notification
    # is O(parked) bit operations instead of a full per-proposal re-scan.
    largest = BUCKET_SIZES[-1]
    for name in ("compute_predecessors", "wait_evaluate_notify"):
        cell = samples[name][largest]
        assert cell["optimized"] > 2.0 * cell["reference"], (
            f"{name} at bucket={largest}: optimized {cell['optimized']:,.0f}/s "
            f"not clearly faster than reference {cell['reference']:,.0f}/s")
    # The update path keeps sorted-bucket + interner bookkeeping, so parity
    # (not speedup) is the requirement against the naive dict/set insert.
    update = samples["history_update"][largest]
    assert update["optimized"] > 0.3 * update["reference"]
