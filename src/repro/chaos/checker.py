"""Per-key linearizability checking of taped client histories.

The checker implements the Wing & Gong search (the algorithm behind Knossos,
restricted to one key at a time): it looks for an order of the operations
that (a) respects real time — an operation that responded before another was
invoked must be linearized first — and (b) replays correctly against the
sequential spec (:mod:`repro.kvstore.spec`).  Pending operations (no
response recorded) may be linearized at any point after their invocation or
omitted entirely, because the protocol may still execute them.

Checking per key is exact, not an approximation: linearizability is *local*
(Herlihy & Wing), and operations on different keys of the store never
interact in the sequential spec, so a history is linearizable iff each
per-key sub-history is.

The search memoizes visited ``(remaining operations, register value)``
configurations (Lowe's just-in-time refinement), which keeps the common
no-violation case near-linear; a per-key state budget turns pathological
histories into an explicit *inconclusive* verdict instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.history import HistoryTape, Operation
from repro.kvstore.spec import RegisterState, apply_op

#: Per-key budget of explored search states.
MAX_STATES_PER_KEY = 200_000


@dataclass
class KeyReport:
    """Verdict for one key's sub-history."""

    key: str
    ok: bool
    inconclusive: bool = False
    states_explored: int = 0
    ops_total: int = 0
    ops_pending: int = 0
    witness: Optional[str] = None


@dataclass
class LinearizabilityReport:
    """Verdict for a whole history."""

    key_reports: Dict[str, KeyReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every key's sub-history is linearizable (and none timed out)."""
        return all(report.ok and not report.inconclusive
                   for report in self.key_reports.values())

    @property
    def violations(self) -> List[KeyReport]:
        """Key reports that failed the check outright."""
        return [report for report in self.key_reports.values()
                if not report.ok and not report.inconclusive]

    @property
    def inconclusive(self) -> List[KeyReport]:
        """Key reports whose search exhausted its state budget."""
        return [report for report in self.key_reports.values() if report.inconclusive]

    @property
    def states_explored(self) -> int:
        """Total search states explored across all keys."""
        return sum(report.states_explored for report in self.key_reports.values())

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.ok:
            return (f"linearizable: {len(self.key_reports)} keys, "
                    f"{self.states_explored} states explored")
        parts = [f"{report.key}: {report.witness or 'not linearizable'}"
                 for report in self.violations]
        parts.extend(f"{report.key}: inconclusive after {report.states_explored} states"
                     for report in self.inconclusive)
        return "NOT linearizable — " + "; ".join(parts)


def check_history(tape: HistoryTape) -> LinearizabilityReport:
    """Check every operation recorded on ``tape`` (each key within :data:`MAX_STATES_PER_KEY`)."""
    report = LinearizabilityReport()
    for key, ops in tape.per_key().items():
        report.key_reports[key] = _check_key(key, ops)
    return report


def _check_key(key: str, ops: Sequence[Operation]) -> KeyReport:
    """Search for a valid linearization of one key's operations, exploring at
    most :data:`MAX_STATES_PER_KEY` states."""
    ops = sorted(ops, key=lambda op: (op.invoked_at, op.op_id))
    pending_ids = frozenset(op.op_id for op in ops if op.is_pending)
    report = KeyReport(key=key, ok=False, ops_total=len(ops),
                       ops_pending=len(pending_ids))
    if not ops:
        report.ok = True
        return report

    by_id = {op.op_id: op for op in ops}
    remaining = frozenset(by_id)
    #: visited (remaining set, register value) configurations.
    seen: Set[Tuple[frozenset, RegisterState]] = set()
    states = 0
    best_depth = 0
    best_stuck: frozenset = remaining

    # Same-client program order: a client is single-threaded, so its earlier
    # *completed* operation whose response does not come after a later
    # operation's invocation must be linearized first — even when the two
    # timestamps coincide (think-time-zero closed-loop clients invoke the
    # next command at the exact virtual instant the previous one responded,
    # and that tie must not dissolve the causal order).  A completed earlier
    # op that responded strictly *after* a later invocation (a reconnect's
    # abandoned command answering late) genuinely overlaps it and constrains
    # nothing.  ``blockers[o]`` lists those must-precede ops; ``o`` is
    # eligible only once none of them remain.
    blockers: Dict[int, Tuple[int, ...]] = {}
    for o in ops:
        blockers[o.op_id] = tuple(
            p.op_id for p in ops
            if p.client_id == o.client_id and p.op_id < o.op_id
            and not p.is_pending and p.responded_at <= o.invoked_at)

    # Iterative DFS: each frame is (remaining, state, iterator over candidate
    # linearization choices).  A recursion would hit Python's limit on long
    # per-key histories.
    def candidates(rem: frozenset) -> List[int]:
        """Ops that may be linearized next: nothing remaining responded before
        their invocation (pending ops never constrain others), and none of
        their same-client predecessors are still unlinearized."""
        min_response = min((by_id[op_id].responded_at for op_id in rem
                            if op_id not in pending_ids), default=None)
        chosen = [op_id for op_id in rem
                  if (min_response is None
                      or by_id[op_id].invoked_at <= min_response)
                  and not any(b in rem for b in blockers[op_id])]
        # Deterministic search order: tape order.
        return sorted(chosen)

    stack = [(remaining, None, iter(candidates(remaining)))]
    while stack:
        rem, state, choices = stack[-1]
        if rem <= pending_ids:
            # Every completed operation linearized; leftover pending ops
            # simply never took effect.
            report.ok = True
            report.states_explored = states
            return report
        advanced = False
        for op_id in choices:
            op = by_id[op_id]
            new_state, expected = apply_op(state, op.operation, op.value)
            if op_id not in pending_ids and expected != op.output:
                continue
            next_rem = rem - {op_id}
            config = (next_rem, new_state)
            if config in seen:
                continue
            seen.add(config)
            states += 1
            if states > MAX_STATES_PER_KEY:
                report.inconclusive = True
                report.states_explored = states
                report.witness = f"state budget ({MAX_STATES_PER_KEY}) exhausted"
                return report
            depth = len(by_id) - len(next_rem)
            if depth > best_depth:
                best_depth = depth
                best_stuck = next_rem
            stack.append((next_rem, new_state, iter(candidates(next_rem))))
            advanced = True
            break
        if not advanced:
            stack.pop()

    report.states_explored = states
    stuck = [by_id[op_id].brief() for op_id in sorted(best_stuck - pending_ids)]
    report.witness = (f"no linearization; best prefix linearized {best_depth}/{len(by_id)} "
                      f"ops, cannot place: {', '.join(stuck[:4])}"
                      + ("…" if len(stuck) > 4 else ""))
    return report
