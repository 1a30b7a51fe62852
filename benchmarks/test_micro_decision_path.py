"""Microbenchmark of the decision-path data structures.

Times the three operations the ordering layer performs per proposal —
predecessor computation, wait-condition evaluation/notification, and the
history UPDATE — at several per-key bucket sizes, for both the optimized
implementations (interned bitsets, timestamp-sorted buckets, incremental
wait bookkeeping; :mod:`repro.core.history` / :mod:`repro.core.predecessors`)
and the paper's Figure 3 as ``tests/spec_caesar.py`` transcribes it (plain
rows, sorted scans, every parked proposal re-scanned after every write), the
reference column below.

Because both variants run interleaved in the same process on the same data,
the reported speedups are meaningful even on noisy shared hosts: the two
alternate rep by rep, so a burst of host load lands on both, and each sample
is a best-of-``REPS`` minimum.  Every number here is wall-clock, so
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
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from tests.conftest import ts
from tests.spec_caesar import SpecHistory, SpecWait, compute_predecessors

#: Per-key bucket sizes the operations are timed at.
BUCKET_SIZES = (64, 256, 1024)

#: Best-of-N repetitions per sample (defends against scheduler noise).
REPS = 5

#: Parked proposals / finalized entries in the wait-path sample.
PARKED = 8
NOTIFIES = 64

BALLOT = Ballot.initial(0)


def make_commands(count: int, key: str = "hot") -> list:
    return [Command(command_id=(0, seq), key=key, operation="put",
                    value=f"v{seq}", origin=0) for seq in range(count)]


def fill(history, commands, status=CommandStatus.FAST_PENDING) -> None:
    """Insert ``commands`` with timestamps 1..N on their shared key, with no
    predecessors (the product's history takes them as a mask, and each
    command's entry: none yet)."""
    for offset, command in enumerate(commands):
        if isinstance(history, SpecHistory):
            history.update(command, ts(offset + 1), set(), status, BALLOT)
        else:
            history.update(command, ts(offset + 1), 0, status, BALLOT, None)


def best_of(run_optimized: Callable[[], int],
            run_reference: Callable[[], int]) -> Dict[str, float]:
    """Ops/second of each variant, best of REPS runs taken alternately.

    Each ``run_*`` returns its op count.  Timing all of one variant's reps
    before the other's let a burst of load on a shared host fall on one
    side only and swing the ratio; alternating spreads it over both.
    """
    best = {"optimized": (0, float("inf")), "reference": (0, float("inf"))}
    for _ in range(REPS):
        for name, fn in (("optimized", run_optimized), ("reference", run_reference)):
            started = time.perf_counter()
            ops = fn()
            elapsed = time.perf_counter() - started
            if elapsed < best[name][1]:
                best[name] = (ops, elapsed)
    return {name: ops / seconds for name, (ops, seconds) in best.items()}


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

    def run_optimized() -> int:
        for _ in range(iterations):
            compute_predecessor_mask(optimized, probe, probe_ts, None)
        return iterations

    reference = SpecHistory()
    fill(reference, commands)

    def run_reference() -> int:
        for _ in range(iterations):
            compute_predecessors(reference, probe, probe_ts)
        return iterations

    return best_of(run_optimized, run_reference)


def time_history_update(size: int) -> Dict[str, float]:
    """Cost of growing one key's bucket from empty to ``size`` entries."""
    commands = make_commands(size)

    def run_optimized() -> int:
        history = CommandHistory()
        fill(history, commands)
        return size

    def run_reference() -> int:
        history = SpecHistory()
        fill(history, commands)
        return size

    return best_of(run_optimized, run_reference)


def time_wait_notify(size: int) -> Dict[str, float]:
    """Wait-condition bookkeeping: park PARKED proposals on a bucket of
    ``size`` blockers, then finalize NOTIFIES of them one by one.

    The optimized manager reclassifies just the changed entry per
    notification; the spec re-scans every parked proposal's conflicts after
    every write — the gap grows with the bucket size.
    """
    commands = make_commands(size)
    proposals = [Command(command_id=(2, seq), key="hot", operation="put",
                         value="w", origin=0) for seq in range(PARKED)]
    notifies = min(NOTIFIES, size)

    def run_optimized() -> int:
        history = CommandHistory()
        fill(history, commands)
        manager = WaitManager(history, lambda: 0.0, True)
        for proposal in proposals:
            # The proposal's own entry, written before WAIT runs, as a handler does.
            entry = history.update(proposal, ts(0, 1), 0, CommandStatus.FAST_PENDING, BALLOT,
                                   None)
            manager.evaluate(proposal, ts(0, 1), lambda ok: None, entry, ())
        assert manager.parked == PARKED
        for command in commands[:notifies]:
            entry = history.get(command.command_id)
            entry = history.update(command, entry.timestamp, 0, CommandStatus.STABLE, BALLOT,
                                   entry)
            manager.notify_entry(entry)
        return PARKED + notifies

    def run_reference() -> int:
        history = SpecHistory()
        fill(history, commands)
        manager = SpecWait(history, lambda: 0.0)
        for proposal in proposals:
            history.update(proposal, ts(0, 1), set(), CommandStatus.FAST_PENDING, BALLOT)
            manager.evaluate(proposal, ts(0, 1), lambda ok: None)
        assert manager.parked == PARKED
        for command in commands[:notifies]:
            history.update(command, history.get(command.command_id).timestamp,
                           set(), CommandStatus.STABLE, BALLOT)
            manager.rescan()
        return PARKED + notifies

    return best_of(run_optimized, run_reference)


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
