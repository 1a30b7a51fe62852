"""Microbenchmark of the decision-path data structures.

Times the three operations the ordering layer performs per proposal —
predecessor computation, wait-condition evaluation/notification, and the
history UPDATE — at several per-key bucket sizes, for both the optimized
implementations (interned bitsets, timestamp-sorted buckets, incremental
wait bookkeeping; :mod:`repro.core.history` / :mod:`repro.core.predecessors`)
and the naive reference implementations kept in :mod:`repro.core.reference`.

Because both variants run interleaved in the same process on the same data,
the reported speedups are meaningful even on noisy shared hosts (each
sample is a best-of-``REPS`` minimum).  Every number here is wall-clock, so
the per-size speedup table is printed (``pytest -s``), not written to a
tracked file; the optimized-vs-reference ratios are asserted.

A fourth row, ``delivery_on_stable``, has no reference column (the scan it
replaced lives in ``tests/test_delivery_differential.py``): it times one
stable event at several pending depths and asserts only the shape — the
blocker index makes the cost independent of how many commands are waiting.

``codec_roundtrip`` (its own test below) times the compiled wire codec
against the interpreted tree it replaced (``tests/interpreted_codec.py``) on
the three messages a fast decision sends, at several predecessor counts.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.delivery import DeliveryManager
from repro.core.history import CommandHistory, CommandStatus
from repro.core.messages import FastPropose, FastProposeReply, Stable
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from repro.core.reference import (ReferenceCommandHistory, ReferenceWaitManager,
                                  reference_compute_predecessors)
from repro.runtime.registry import WIRE
from tests.interpreted_codec import interpreted_registry

#: Per-key bucket sizes the operations are timed at.
BUCKET_SIZES = (64, 256, 1024)

#: Pending depths the delivery row is timed at, and stable events per sample.
PENDING_DEPTHS = (16, 64, 256)
DELIVERY_EVENTS = 2000

#: Predecessor-set sizes the codec row is timed at; calls per sample; samples.
PREDECESSOR_COUNTS = (0, 16, 64)
CODEC_ITERATIONS = 2000
CODEC_REPS = 5

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
    optimized.intern(probe.command_id)

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


def time_delivery_on_stable(depth: int) -> float:
    """Stable events per second while ``depth`` stable commands wait on a
    predecessor that never arrives: each event is a command on another key
    with nothing to wait for, so all it should pay is its own delivery."""
    blocker = Command(command_id=(9, 0), key="hot", operation="put", value="b", origin=0)
    waiting = make_commands(depth)
    arrivals = [Command(command_id=(3, seq), key="cold", operation="put", value="a", origin=0)
                for seq in range(DELIVERY_EVENTS)]

    def run() -> float:
        history = CommandHistory()
        manager = DeliveryManager(history, lambda command: None)
        for offset, command in enumerate(waiting):
            history.update(command, ts(offset + 1), {blocker.command_id},
                           CommandStatus.STABLE, BALLOT)
            manager.on_stable(command)
        assert manager.pending_count() == depth
        for offset, command in enumerate(arrivals):
            history.update(command, ts(offset + 1, 1), set(), CommandStatus.STABLE, BALLOT)
        started = time.perf_counter()
        for command in arrivals:
            manager.on_stable(command)
        elapsed = time.perf_counter() - started
        assert manager.delivered_count == DELIVERY_EVENTS
        return elapsed

    return DELIVERY_EVENTS / min(run() for _ in range(REPS))


OPERATIONS = {
    "compute_predecessors": time_compute_predecessors,
    "history_update": time_history_update,
    "wait_evaluate_notify": time_wait_notify,
}


@pytest.mark.benchmark(group="micro")
def test_decision_path_microbench(benchmark):
    """Ops/second of the decision-path operations, optimized vs reference."""

    def run_all():
        samples: Dict[str, Dict[int, Dict[str, float]]] = {}
        for name, timer in OPERATIONS.items():
            samples[name] = {size: timer(size) for size in BUCKET_SIZES}
        return samples, {depth: time_delivery_on_stable(depth) for depth in PENDING_DEPTHS}

    samples, delivery = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"{'operation':<24} {'bucket':>6} {'optimized/s':>14} "
             f"{'reference/s':>14} {'speedup':>8}"]
    for name, sizes in samples.items():
        for size, cell in sizes.items():
            speedup = cell["optimized"] / cell["reference"]
            lines.append(f"{name:<24} {size:>6} {cell['optimized']:>14,.0f} "
                         f"{cell['reference']:>14,.0f} {speedup:>7.1f}x")
    lines.append(f"{'operation':<24} {'depth':>6} {'events/s':>14}")
    for depth, rate in delivery.items():
        lines.append(f"{'delivery_on_stable':<24} {depth:>6} {rate:>14,.0f}")
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
    # A stable event wakes only the commands filed under its bit, so 16x the
    # pending depth must not cost anywhere near 16x (the rescan it replaced did:
    # 59k, 10k and 3.6k events/s at these depths).
    shallow, deep = delivery[PENDING_DEPTHS[0]], delivery[PENDING_DEPTHS[-1]]
    assert deep > shallow / 3.0, (
        f"delivery_on_stable: {deep:,.0f} events/s at depth {PENDING_DEPTHS[-1]} vs "
        f"{shallow:,.0f} at depth {PENDING_DEPTHS[0]}")


# ------------------------------------------------------------- the wire codec

def codec_messages(count: int) -> Dict[str, object]:
    """The messages of one fast decision, each carrying ``count`` predecessor ids."""
    command = Command(command_id=(3, 1041), key="key-17", operation="put",
                      value="value-1041", origin=2)
    ids = frozenset((seq % 3, 1000 + seq) for seq in range(count))
    return {
        "FastPropose": FastPropose(command=command, ballot=BALLOT, timestamp=ts(1300, 2),
                                   whitelist=ids or None),
        "FastProposeReply": FastProposeReply(command_id=command.command_id, ballot=BALLOT,
                                             timestamp=ts(1300, 2), predecessors=ids, ok=True),
        "Stable": Stable(command=command, ballot=BALLOT, timestamp=ts(1300, 2),
                         predecessors=ids),
    }


def time_codec(message: object, interpreted) -> Dict[str, float]:
    """Microseconds per encode and per decode, compiled and interpreted.

    The four loops take turns, best of ``CODEC_REPS`` each, so a noisy
    stretch of the host cannot land on one side of a ratio only.
    """
    payload = WIRE.encode(message)
    assert payload == interpreted.encode(message)
    assert WIRE.decode_one(payload) == interpreted.decode_one(payload) == message
    calls = {"encode": (WIRE.encode, message),
             "encode_interpreted": (interpreted.encode, message),
             "decode": (WIRE.decode_one, payload),
             "decode_interpreted": (interpreted.decode_one, payload)}
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(CODEC_REPS):
        for name, (fn, argument) in calls.items():
            started = time.perf_counter()
            for _ in range(CODEC_ITERATIONS):
                fn(argument)
            best[name] = min(best[name], time.perf_counter() - started)
    return {name: seconds / CODEC_ITERATIONS * 1e6 for name, seconds in best.items()}


@pytest.mark.benchmark(group="micro")
def test_codec_roundtrip_microbench(benchmark):
    """Compiled vs interpreted codec, microseconds per call (printed, not written)."""
    interpreted = interpreted_registry(WIRE)

    def run_all():
        return {(name, count): time_codec(message, interpreted)
                for count in PREDECESSOR_COUNTS
                for name, message in codec_messages(count).items()}

    samples = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"{'codec_roundtrip':<18} {'preds':>5} {'encode us':>10} {'interp us':>10} "
             f"{'speedup':>8} {'decode us':>10} {'interp us':>10} {'speedup':>8}"]
    for (name, count), cell in samples.items():
        lines.append(
            f"{name:<18} {count:>5} {cell['encode']:>10.2f} {cell['encode_interpreted']:>10.2f} "
            f"{cell['encode_interpreted'] / cell['encode']:>7.1f}x "
            f"{cell['decode']:>10.2f} {cell['decode_interpreted']:>10.2f} "
            f"{cell['decode_interpreted'] / cell['decode']:>7.1f}x")
    print("\n" + "\n".join(lines))

    # One flat function instead of ~75 method calls.  Decoding gains less: its
    # floor is the four frozen-dataclass constructors, which both sides pay.
    cell = samples[("Stable", 16)]
    assert cell["encode_interpreted"] >= 1.5 * cell["encode"], cell
    assert cell["decode_interpreted"] >= 1.2 * cell["decode"], cell
