"""CAESAR as the paper's pseudocode states it: the executable spec.

A direct, unoptimised transcription of Figure 3 (COMPUTEPREDECESSORS, WAIT,
BREAKLOOP and delivery), of Figure 4 (the fast, slow, retry and stable
phases, leader and acceptor) and of Figure 5 (recovery), which every
decision-path differential under ``tests/`` and ``benchmarks/`` checks the
product against.  The history is a dict of plain rows ``<c, T, Pred, status,
ballot, forced>`` with ``Pred`` a frozenset of ids; every question is a scan
of those rows.
No interner, bucket, bitmask, blocker index, slot or shortcut: WAIT re-scans
every parked proposal after every history write, and delivery is BREAKLOOP
by set edits, then a repeated scan of the pending commands in timestamp order.

:class:`SpecCaesarReplica` takes one thing from the product: the runtime
kernel (send, broadcast, timers, retransmission, the failure detector, the
CPU charge, stats, decision records).  Its ballots are its own: a plain
register, the highest ballot joined per command (:class:`BallotRegister`).  It also uses the
product's vocabulary: messages, ``CommandStatus``, ``LeaderState`` and the
phase names.  ``tests/test_import_graph.py`` holds it to that.  Its
fast-proposal timeout is stated here, and ``TestLeaderRandomSchedules`` in
``tests/test_caesar_differential.py`` catches a disagreement with the
product's; the failure detector's heartbeat and suspicion are the kernel's
detector's, and the crash cell of ``TestSpecEndToEnd`` runs them.
A restart is not part of the pseudocode, and the spec adds nothing to the
kernel's ``on_restart`` (no spec run restarts a node;
``tests/test_retransmission.py::TestRestartRearms`` pins the product's).

Rules the pseudocode leaves implicit, kept here because the product keeps
them and a network that duplicates and reorders messages needs them:

* an acceptor joins a ballot only if it is at least the highest it joined
  for the command (``BallotRegister.allows``), and STABLE adopts its ballot;
* a proposal of a command already STABLE here is ignored (P11, P31, R5);
* a proposal at a ballot not above an ACCEPTED row's is ignored: a resent
  proposal never downgrades what a RETRY promoted (P11, P31);
* a parked proposal is answered only if its ballot is still joined and no
  RETRY or STABLE overtook it (P15, P35);
* every message's timestamp advances the local clock, and a NACK suggests
  the next local timestamp above the proposal's, with the predecessors at it;
* with the wait condition off (the ablation), WAIT rejects instead of parking;
* the leader stops waiting for a fast quorum as soon as every node it still
  trusts has answered (with a classic quorum), and a stuck delivery asks
  peers for the missing STABLEs.

Where the product and the spec differ, and how the differentials treat it:

1. *Timing of the immediate answer.*  A fast proposal that passes WAIT with
   nothing parked on its key is answered in the product's handler, without
   the answer step's re-checks; here every answer goes through
   :meth:`SpecCaesarReplica._answer_proposal`.  Same messages, same rows.
2. *Delivery of a command whose predecessors are all delivered while nothing
   is pending.*  The product delivers it without BREAKLOOP, which would only
   have taken out predecessors delivered at a timestamp not below its own;
   the protocol never produces one (a stable command lists every conflicting
   command stable at a smaller timestamp), generated inputs can.
   :func:`comparable_predecessors` leaves exactly those out of a delivered
   row on both sides.
3. *Incremental WAIT.*  The product reclassifies the one row a write changed
   against the proposals parked on its key; the spec re-scans them all.  The
   outcomes, their order and the wait times are compared.
4. *Sends within one handler call* are compared as a multiset.
5. *Identity.*  The product reuses message objects (a reply echoes the
   proposal's timestamp); everything is compared by equality.
6. *Where a command's ballot is kept.*  The product keeps the ballot a
   replica promised a command on the command's history entry, plus a table
   of the promises above it (a recovery prepare, a ``Stable`` below the
   promise); the spec keeps :class:`BallotRegister`.  P1 writes the leader's
   round-0 ballot here and nothing in the product, where no promise at all
   allows every ballot as round 0 does.  The differentials compare
   :meth:`SpecCaesarReplica.promised` with the product's, an absent promise
   read as the command's round-0 ballot and collected commands left out (the
   product forgets a collected command's promise with its entry).
7. *What only the product has*: the first-key binding of ids
   (``tests/test_core_history.py::TestFirstKeyBinding``,
   ``tests/test_wire_hostile.py``), per-key masks and buckets
   (``tests/test_core_invariants.py``: ``TestMaskWidth``,
   ``TestBucketIndex``), indices kept across collection
   (``tests/test_core_history.py``, the collected-command scenarios of
   ``tests/test_caesar_differential.py``), history collection itself, which
   the spec never does (``tests/test_core_compaction.py`` holds a collecting
   replica to this one's verdicts, timestamps and delivery order), and the
   cost guards of the blocker index (``tests/test_delivery_differential.py``).

The probes of ``tests/test_caesar_differential.py`` compare every field
they read with ``==``, but for three: the sends of one handler call (4),
the predecessors of a delivered row (2) and the promises (6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.timestamps import LogicalTimestamp, TimestampGenerator
from repro.core.caesar import PHASE_DONE, PHASE_FAST, PHASE_RETRY, PHASE_SLOW, LeaderState
from repro.core.history import CommandStatus
from repro.core.messages import (
    FastPropose,
    FastProposeReply,
    Recovery,
    RecoveryReply,
    Retry,
    RetryReply,
    SlowPropose,
    SlowProposeReply,
    Stable,
)
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles

STABLE = CommandStatus.STABLE
ACCEPTED = CommandStatus.ACCEPTED
#: Figure 5: the grace period between suspecting a node and recovering the
#: commands it leads, once per node of lower id still trusted (the product's).
RECOVERY_DELAY_MS = 50.0
#: P5: how long a leader waits for a fast quorum (the product's).
FAST_PROPOSAL_TIMEOUT_MS = 1500.0


@dataclass
class Row:
    """One row of ``H_i`` (Section V-A)."""

    command: Command
    timestamp: LogicalTimestamp
    predecessors: FrozenSet[CommandId]
    status: CommandStatus
    ballot: Ballot
    forced: bool = False

    @property
    def command_id(self) -> CommandId:
        return self.command.command_id


class SpecHistory:
    """``H_i``: command id -> :class:`Row`."""

    def __init__(self) -> None:
        self.rows: Dict[CommandId, Row] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def get(self, command_id: CommandId) -> Optional[Row]:
        return self.rows.get(command_id)

    def entries(self) -> Iterable[Row]:
        return list(self.rows.values())

    def update(self, command: Command, timestamp: LogicalTimestamp,
               predecessors: Iterable[CommandId], status: CommandStatus, ballot: Ballot,
               forced: bool = False) -> Row:
        """UPDATE: the row of ``command`` becomes ``<c, T, Pred, status, ballot, forced>``."""
        row = self.rows[command.command_id] = Row(command, timestamp, frozenset(predecessors),
                                                  status, ballot, forced)
        return row

    def remove(self, command_id: CommandId) -> None:
        """Garbage collection: forget a command delivered everywhere."""
        self.rows.pop(command_id, None)

    def conflicting(self, command: Command) -> Iterator[Row]:
        """Rows of the commands that conflict with ``command``."""
        return (row for row in self.rows.values()
                if row.command_id != command.command_id and row.command.conflicts_with(command))


def compute_predecessors(history: SpecHistory, command: Command, timestamp: LogicalTimestamp,
                         whitelist: Optional[FrozenSet[CommandId]] = None) -> Set[CommandId]:
    """COMPUTEPREDECESSORS (Figure 3): the conflicting commands in ``H`` below ``T``.

    With a recovery whitelist, a conflicting command is a predecessor if it is
    whitelisted, or if it is below ``T`` and past the proposal phases
    (slow-pending, accepted or stable).
    """
    if whitelist is None:
        return {row.command_id for row in history.conflicting(command)
                if row.timestamp < timestamp}
    return {row.command_id for row in history.conflicting(command)
            if row.command_id in whitelist
            or (row.status.survived_proposal and row.timestamp < timestamp)}


class SpecWait:
    """WAIT (Figure 3, lines 4-8), with the proposals it keeps waiting.

    A proposal of ``c`` at ``T`` waits while a conflicting command above ``T``
    that does not list ``c`` is neither accepted nor stable; it is then OK if
    no such command is accepted or stable, else NACK.
    """

    def __init__(self, history: SpecHistory, now: Callable[[], float],
                 enabled: bool = True) -> None:
        self.history = history
        self.now = now
        self.enabled = enabled
        #: ``(command, T, on_resolved, parked_at)``, in parking order.
        self.queue: List[tuple] = []
        self.total_waits = 0
        self.total_wait_ms = 0.0

    def scan(self, command: Command, timestamp: LogicalTimestamp) -> tuple:
        """``(blocked, rejected)`` for a proposal of ``command`` at ``timestamp``."""
        blocked = rejected = False
        for row in self.history.conflicting(command):
            if row.timestamp > timestamp and command.command_id not in row.predecessors:
                if row.status in (ACCEPTED, STABLE):
                    rejected = True
                else:
                    blocked = True
        return blocked, rejected

    def evaluate(self, command: Command, timestamp: LogicalTimestamp,
                 on_resolved: Callable[[bool], None]) -> Optional[bool]:
        """OK / NACK now, or ``None``: parked, ``on_resolved(ok)`` later."""
        blocked, rejected = self.scan(command, timestamp)
        if not blocked:
            return not rejected
        if not self.enabled:
            return False
        self.queue.append((command, timestamp, on_resolved, self.now()))
        return None

    def rescan(self) -> None:
        """After every history write: answer each parked proposal no longer blocked."""
        still, resolved = [], []
        for parked in self.queue:
            blocked, rejected = self.scan(parked[0], parked[1])
            if blocked:
                still.append(parked)
            else:
                resolved.append((parked, rejected))
        if not resolved:
            return
        self.queue = still
        now = self.now()
        for (_, _, on_resolved, parked_at), rejected in resolved:
            self.total_waits += 1
            self.total_wait_ms += now - parked_at
            on_resolved(not rejected)

    def drop(self, command_id: CommandId) -> None:
        """Forget the parked proposals of a command a RETRY or STABLE overtook."""
        self.queue = [p for p in self.queue if p[0].command_id != command_id]

    @property
    def parked(self) -> int:
        """Number of parked proposals, as the product's ``WaitManager.parked``."""
        return len(self.queue)

    def has_parked(self, key: str) -> bool:
        return any(p[0].key == key for p in self.queue)


class SpecDelivery:
    """Delivery of stable commands (Figure 3, lines 9-17)."""

    def __init__(self, history: SpecHistory, execute: Callable[[Command], None]) -> None:
        self.history = history
        self.execute = execute
        #: Stable, undelivered commands, in the order they became stable.
        self.pending: Dict[CommandId, Command] = {}
        self.delivered: Set[CommandId] = set()
        self.delivered_order: List[CommandId] = []

    def is_delivered(self, command_id: CommandId) -> bool:
        return command_id in self.delivered

    def pending_count(self) -> int:
        return len(self.pending)

    def missing_predecessors(self) -> Set[CommandId]:
        """Undelivered predecessors of pending commands that are not stable here."""
        missing = set()
        for command_id in self.pending:
            for predecessor in self.history.get(command_id).predecessors - self.delivered:
                row = self.history.get(predecessor)
                if row is None or row.status is not STABLE:
                    missing.add(predecessor)
        return missing

    def break_loop(self, row: Row) -> None:
        """BREAKLOOP (Figure 3): of two stable commands that list each other, only
        the one with the larger timestamp keeps the edge.

        ``c`` is the newly stable command.  Each stable ``c̄`` in ``Pred(c)``: if
        ``c̄`` is below ``c``, ``c`` leaves ``Pred(c̄)``, else ``c̄`` leaves
        ``Pred(c)``.  Each pending ``c̄`` that lists ``c`` (its own BREAKLOOP ran
        while ``c`` was not stable yet): if ``c`` is below ``c̄``, ``c̄`` leaves
        ``Pred(c)``, else ``c`` leaves ``Pred(c̄)``.
        """
        command_id = row.command_id
        for predecessor in row.predecessors:
            other = self.history.get(predecessor)
            if other is None or other.status is not STABLE:
                continue
            if other.timestamp < row.timestamp:
                other.predecessors -= {command_id}
            else:
                row.predecessors -= {predecessor}
        for pending_id in self.pending:
            other = self.history.get(pending_id)
            if pending_id == command_id or command_id not in other.predecessors:
                continue
            if row.timestamp < other.timestamp:
                row.predecessors -= {pending_id}
            else:
                other.predecessors -= {command_id}

    def on_stable(self, command: Command) -> List[Command]:
        """Figure 3, lines 9-17: ``c`` (its row already STABLE) is pending; BREAKLOOP;
        then deliver, round by round, every pending command whose predecessors
        are all delivered, each round in timestamp order."""
        if command.command_id in self.delivered:
            return []
        self.pending[command.command_id] = command
        self.break_loop(self.history.get(command.command_id))
        delivered_now: List[Command] = []
        while True:
            ready = [(self.history.get(command_id), pending)
                     for command_id, pending in self.pending.items()]
            ready = [(row.timestamp, pending) for row, pending in ready
                     if row.predecessors <= self.delivered]
            if not ready:
                return delivered_now
            for _, pending in sorted(ready, key=lambda item: item[0]):
                del self.pending[pending.command_id]
                self.delivered.add(pending.command_id)
                self.delivered_order.append(pending.command_id)
                self.execute(pending)
                delivered_now.append(pending)


def comparable_predecessors(history, row, delivered: bool) -> List[CommandId]:
    """A row's predecessor ids as the differentials compare them, on either side.

    A delivered command's predecessors with a row at a timestamp not below its
    own are left out: the product's delivery without BREAKLOOP keeps them, the
    spec's BREAKLOOP takes them out (difference 2 of the module docstring).
    """
    kept = []
    for predecessor in row.predecessors:
        other = history.get(predecessor)
        if not delivered or other is None or other.timestamp < row.timestamp:
            kept.append(predecessor)
    return sorted(kept)


class BallotRegister(dict):
    """The highest ballot joined per command: a plain dict with the two rules."""

    def allows(self, command_id: CommandId, ballot: Ballot) -> bool:
        """Whether a message at ``ballot`` may be processed for the command."""
        current = self.get(command_id)
        return current is None or ballot >= current

    def observe(self, command_id: CommandId, ballot: Ballot) -> None:
        """Adopt ``ballot`` if it is at least the one joined (STABLE)."""
        if self.allows(command_id, ballot):
            self[command_id] = ballot


@dataclass
class SpecRecovery:
    """A recovery this node leads: the command, its ballot, the RECOVERYR tuples."""

    command: Command
    ballot: Ballot
    replies: QuorumTracker
    done: bool = False


class SpecCaesarReplica(ProtocolKernel):
    """A CAESAR node, leader and acceptor, as Figures 3, 4 and 5 state it."""

    protocol_name = "caesar"

    def __init__(self, node_id: int, sim, network, quorums, state_machine,
                 cost_model=None, wait_condition: bool = True) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.timestamps = TimestampGenerator(node_id)
        self.history = SpecHistory()
        self.wait_manager = SpecWait(self.history, lambda: self.sim.now,
                                     wait_condition)
        self.delivery = SpecDelivery(self.history, self._execute_stable)
        self.leader_states: Dict[CommandId, LeaderState] = {}
        self.ballots = BallotRegister()
        #: Figure 5: the recoveries this node leads, and the nodes it suspects.
        self.recoveries: Dict[CommandId, SpecRecovery] = {}
        self.suspected: Set[int] = set()

    def promised(self, command_id: CommandId) -> Optional[Ballot]:
        """The highest ballot joined for the command (``None``: none yet)."""
        return self.ballots.get(command_id)

    def _write(self, command: Command, timestamp: LogicalTimestamp,
               predecessors: Iterable[CommandId], status: CommandStatus, ballot: Ballot,
               forced: bool = False) -> None:
        """UPDATE, then WAIT re-scans every parked proposal."""
        self.history.update(command, timestamp, predecessors, status, ballot, forced)
        self.wait_manager.rescan()

    # ------------------------------------------------------------ leader

    def propose(self, command: Command) -> None:
        """P1: lead ``command`` at a fresh timestamp and the initial ballot."""
        ballot = Ballot.initial(self.node_id)
        self.ballots.setdefault(command.command_id, ballot)
        self._start_fast_proposal(command, ballot, self.timestamps.next_timestamp(), None)

    def _round(self, state: LeaderState, phase: str, threshold: int, message: object) -> None:
        """Broadcast a phase's message and collect ``threshold`` replies to it."""
        state.phase, state.votes = phase, QuorumTracker(threshold)
        self.broadcast(message)
        self.retransmit.track(state.command.command_id, message, tracker=state.votes)

    def _start_fast_proposal(self, command: Command, ballot: Ballot,
                             timestamp: LogicalTimestamp,
                             whitelist: Optional[FrozenSet[CommandId]],
                             recovered: bool = False) -> None:
        """P2: FASTPROPOSE to every node, with a timeout for the fast quorum."""
        state = LeaderState(command, ballot, PHASE_FAST, timestamp, whitelist, None,
                            self.sim.now, None, recovered)
        self.leader_states[command.command_id] = state
        state.timer = self.set_timer(FAST_PROPOSAL_TIMEOUT_MS,
                                     self._on_fast_proposal_timeout, command.command_id)
        self._round(state, PHASE_FAST, self.quorums.fast,
                    FastPropose(command=command, ballot=ballot, timestamp=timestamp,
                                whitelist=whitelist))

    def _start_slow_proposal(self, state: LeaderState) -> None:
        """P21-P22: SLOWPROPOSE with the merged timestamp and predecessors."""
        self.stats.slow_proposals += 1
        state.phase_started_at, state.went_slow = self.sim.now, True
        self._round(state, PHASE_SLOW, self.quorums.classic,
                    SlowPropose(command=state.command, ballot=state.ballot,
                                timestamp=state.timestamp,
                                predecessors=frozenset(state.predecessors)))

    def _start_retry(self, state: LeaderState) -> None:
        """R1-R2: RETRY at the highest timestamp any reply held."""
        self.stats.retries += 1
        decision = self.decisions.get(state.command.command_id)
        if decision is not None:
            decision.propose_ms += self.sim.now - state.phase_started_at
        state.phase_started_at, state.went_slow = self.sim.now, True
        self._round(state, PHASE_RETRY, self.quorums.classic,
                    Retry(command=state.command, ballot=state.ballot, timestamp=state.timestamp,
                          predecessors=frozenset(state.predecessors)))

    def _start_stable(self, state: LeaderState) -> None:
        """S1: STABLE with the final timestamp and predecessors."""
        command_id = state.command.command_id
        kind = (DecisionKind.RECOVERED if state.recovered
                else DecisionKind.SLOW if state.went_slow else DecisionKind.FAST)
        decision = self.decisions.get(command_id)
        if decision is not None:
            if state.phase == PHASE_RETRY:
                decision.retry_ms += self.sim.now - state.phase_started_at
            else:
                decision.propose_ms += self.sim.now - state.phase_started_at
        self.record_decided(command_id, kind)
        if state.timer is not None:
            state.timer.cancel()
        state.phase = PHASE_DONE
        del self.leader_states[command_id]
        self.retransmit.resolve(command_id)
        if kind is DecisionKind.FAST:
            self.stats.fast_decisions += 1
        else:
            self.stats.slow_decisions += 1
        self.broadcast(Stable(command=state.command, ballot=state.ballot,
                              timestamp=state.timestamp,
                              predecessors=frozenset(state.predecessors)))

    @staticmethod
    def _merge_replies(state: LeaderState) -> bool:
        """P3-P4 (and P23-P24): the highest timestamp, the union of the predecessors
        less the command; whether every reply was OK."""
        replies = list(state.votes.payloads())
        state.timestamp = max([state.timestamp] + [reply.timestamp for reply in replies])
        for reply in replies:
            state.predecessors |= reply.predecessors
        state.predecessors.discard(state.command.command_id)
        return all(reply.ok for reply in replies)

    def _on_fast_proposal_timeout(self, command_id: CommandId) -> None:
        """P5-P10: no fast quorum in time.  With a classic quorum of replies, all OK
        goes to the slow proposal and any NACK to RETRY; short of one, wait on."""
        state = self.leader_states.get(command_id)
        if state is None or state.phase != PHASE_FAST:
            return
        if state.votes.count < self.quorums.classic:
            state.timer = self.set_timer(FAST_PROPOSAL_TIMEOUT_MS,
                                         self._on_fast_proposal_timeout, command_id)
        elif self._merge_replies(state):
            self._start_slow_proposal(state)
        else:
            self._start_retry(state)

    def _current(self, message: object, phase: str) -> Optional[LeaderState]:
        """The leader state a reply answers: same command, phase and ballot."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != phase or state.ballot != message.ballot:
            return None
        return state

    @handles(FastProposeReply)
    def _on_fast_propose_reply(self, src: int, message: FastProposeReply) -> None:
        """P3-P10: a fast quorum all OK is stable at once, any NACK retries."""
        state = self._current(message, PHASE_FAST)
        if state is None:
            return
        if not state.votes.vote(src, message):
            detector = self.failure_detector
            if (detector is not None and detector.suspected
                    and state.votes.count >= self.quorums.classic
                    and all(node_id in state.votes.voters() or node_id in detector.suspected
                            for node_id in self.network.node_ids)):
                self._on_fast_proposal_timeout(message.command_id)
            return
        if self._merge_replies(state):
            self._start_stable(state)
        else:
            self._start_retry(state)

    @handles(SlowProposeReply)
    def _on_slow_propose_reply(self, src: int, message: SlowProposeReply) -> None:
        """P23-P30: a classic quorum all OK is stable, any NACK retries."""
        state = self._current(message, PHASE_SLOW)
        if state is None or not state.votes.vote(src, message):
            return
        if self._merge_replies(state):
            self._start_stable(state)
        else:
            self._start_retry(state)

    @handles(RetryReply)
    def _on_retry_reply(self, src: int, message: RetryReply) -> None:
        """R3-R4: a classic quorum of RETRYREPLY adds their predecessors; stable."""
        state = self._current(message, PHASE_RETRY)
        if state is None or not state.votes.vote(src, message):
            return
        for reply in state.votes.payloads():
            state.predecessors |= reply.predecessors
        state.predecessors.discard(message.command_id)
        self._start_stable(state)

    # ---------------------------------------------------------- acceptor

    def _joins(self, command: Command, ballot: Ballot, timestamp: LogicalTimestamp,
               proposal: bool) -> bool:
        """Join ``ballot`` for a proposal (P11, P31) or a RETRY (R5), unless a rule
        of the module docstring says the message is stale."""
        command_id = command.command_id
        row = self.history.get(command_id)
        if (not self.ballots.allows(command_id, ballot)
                or (row is not None and (row.status is STABLE or (
                    proposal and row.status is ACCEPTED and not ballot > row.ballot)))):
            return False
        self.ballots[command_id] = ballot
        self.timestamps.observe(timestamp)
        return True

    @handles(FastPropose)
    def _on_fast_propose(self, src: int, message: FastPropose) -> None:
        """P11-P20: predecessors, the row fast-pending, WAIT, then the answer."""
        command, ballot, timestamp = message.command, message.ballot, message.timestamp
        if not self._joins(command, ballot, timestamp, proposal=True):
            return
        predecessors = compute_predecessors(self.history, command, timestamp, message.whitelist)
        self.consume_cpu(self.cost_model.dependency_cost(len(predecessors)))
        self._write(command, timestamp, predecessors, CommandStatus.FAST_PENDING, ballot,
                    forced=message.whitelist is not None)
        self._wait(src, command, ballot, timestamp, predecessors, fast=True)

    @handles(SlowPropose)
    def _on_slow_propose(self, src: int, message: SlowPropose) -> None:
        """P31-P39: the leader's predecessors and this node's, the row slow-pending,
        WAIT, then the answer."""
        command, ballot, timestamp = message.command, message.ballot, message.timestamp
        if not self._joins(command, ballot, timestamp, proposal=True):
            return
        predecessors = ((compute_predecessors(self.history, command, timestamp)
                         | message.predecessors) - {command.command_id})
        self.consume_cpu(self.cost_model.dependency_cost(len(predecessors)))
        self._write(command, timestamp, predecessors, CommandStatus.SLOW_PENDING, ballot)
        self._wait(src, command, ballot, timestamp, predecessors, fast=False)

    def _wait(self, leader: int, command: Command, ballot: Ballot,
              timestamp: LogicalTimestamp, predecessors: Set[CommandId], fast: bool) -> None:
        """P14 / P34: WAIT, answered now or once it terminates."""
        def answer(ok: bool) -> None:
            self._answer_proposal(ok, leader, command, ballot, timestamp, predecessors, fast)

        verdict = self.wait_manager.evaluate(command, timestamp, answer)
        if verdict is not None:
            answer(verdict)

    def _answer_proposal(self, ok: bool, leader: int, command: Command,
                         ballot: Ballot, timestamp: LogicalTimestamp,
                         predecessors: Set[CommandId], fast: bool) -> None:
        """P15-P20 / P35-P39: OK with the row pending at ``T``, or NACK with the row
        rejected at a suggested greater timestamp and the predecessors there."""
        command_id = command.command_id
        row = self.history.get(command_id)
        if (not self.ballots.allows(command_id, ballot)
                or (row is not None and row.status in (ACCEPTED, STABLE))):
            return
        if ok:
            status = CommandStatus.FAST_PENDING if fast else CommandStatus.SLOW_PENDING
            self._write(command, timestamp, predecessors, status, ballot,
                        forced=row is not None and row.forced)
        else:
            self.stats.nacks_sent += 1
            timestamp = self.timestamps.suggestion_greater_than(timestamp)
            predecessors = compute_predecessors(self.history, command, timestamp)
            self._write(command, timestamp, predecessors, CommandStatus.REJECTED, ballot)
        reply = FastProposeReply if fast else SlowProposeReply
        self.send(leader, reply(command_id=command_id, ballot=ballot, timestamp=timestamp,
                                predecessors=frozenset(predecessors), ok=ok))

    @handles(Retry)
    def _on_retry(self, src: int, message: Retry) -> None:
        """R5-R8: the row accepted with the leader's predecessors (never a NACK);
        the reply adds the ones this node has below ``T``."""
        command, ballot, timestamp = message.command, message.ballot, message.timestamp
        if not self._joins(command, ballot, timestamp, proposal=False):
            return
        extra = compute_predecessors(self.history, command, timestamp)
        self.consume_cpu(self.cost_model.dependency_cost(len(extra)))
        self.wait_manager.drop(command.command_id)
        self._write(command, timestamp, message.predecessors, ACCEPTED, ballot)
        self.send(src, RetryReply(command_id=command.command_id, ballot=ballot,
                                  timestamp=timestamp, predecessors=frozenset(extra)))

    @handles(Stable)
    def _on_stable(self, src: int, message: Stable) -> None:
        """S2-S7: the row stable with the decided predecessors, then delivery."""
        command = message.command
        command_id = command.command_id
        row = self.history.get(command_id)
        if row is not None and row.status is STABLE:
            return
        self.ballots.observe(command_id, message.ballot)
        self.timestamps.observe(message.timestamp)
        predecessors = message.predecessors - {command_id}
        self.wait_manager.drop(command_id)
        self._write(command, message.timestamp, predecessors, STABLE, message.ballot)
        self.consume_cpu(self.cost_model.dependency_cost(len(predecessors)))
        self.delivery.on_stable(command)
        if self.delivery.pending_count():
            self.note_progress_gap()

    def _execute_stable(self, command: Command) -> None:
        """Delivery (Figure 3, line 17): execute; BREAKLOOP may have edited rows."""
        decision = self.execute_command(command)
        if decision is not None and decision.decided_at is not None:
            decision.deliver_ms += self.sim.now - decision.decided_at
        self.wait_manager.rescan()

    # ------------------------------------------------------- recovery

    def on_suspect(self, peer: int) -> None:
        """Figure 5: suspecting ``peer``, recover the commands it leads after a delay
        staggered by this node's rank among the nodes it still trusts."""
        self.suspected.add(peer)
        rank = sum(1 for node_id in self.network.node_ids
                   if node_id < self.node_id and node_id not in self.suspected)
        self.set_timer(RECOVERY_DELAY_MS * (1 + rank), self._recover_led_by, peer)

    def _recover_led_by(self, peer: int) -> None:
        """Recover every row not STABLE whose highest known ballot is ``peer``'s."""
        for row in self.history.entries():
            if (row.status is not STABLE
                    and self.ballots.get(row.command_id, row.ballot).node_id == peer):
                self.start_recovery(row.command)

    def start_recovery(self, command: Command) -> None:
        """RECOVERYPHASE (Figure 5, lines 1-4): prepare at the next ballot of this
        node above the highest known for the command.  This node's own tuple is
        a vote cast here: its ballot register already holds the new ballot, so
        its copy of the RECOVERY is not fresh and is never answered."""
        command_id = command.command_id
        row = self.history.get(command_id)
        if row is not None and row.status is STABLE:
            return
        ballot = self.ballots.get(command_id, Ballot.initial(command.origin)).next_for(
            self.node_id)
        self.ballots[command_id] = ballot
        self.recoveries[command_id] = SpecRecovery(command, ballot,
                                                   QuorumTracker(self.quorums.classic))
        self.stats.recoveries_started += 1
        self.broadcast(Recovery(command=command, ballot=ballot))
        self._on_recovery_reply(self.node_id, self._tuple(command_id, ballot))

    def _tuple(self, command_id: CommandId, ballot: Ballot) -> RecoveryReply:
        """RECOVERYR: this node's row of the command, or that it has none."""
        row = self.history.get(command_id)
        if row is None:
            return RecoveryReply(command_id=command_id, ballot=ballot, known=False)
        return RecoveryReply(command_id=command_id, ballot=ballot, known=True,
                             entry_ballot=row.ballot, timestamp=row.timestamp,
                             predecessors=row.predecessors, status=row.status.value,
                             forced=row.forced)

    @handles(Recovery)
    def _on_recovery(self, src: int, message: Recovery) -> None:
        """Figure 5, lines 28-33: join a ballot above any joined for the command
        and answer with the row."""
        command_id = message.command.command_id
        current = self.ballots.get(command_id)
        if current is not None and message.ballot <= current:
            return
        self.ballots[command_id] = message.ballot
        self.send(src, self._tuple(command_id, message.ballot))

    @handles(RecoveryReply)
    def _on_recovery_reply(self, src: int, message: RecoveryReply) -> None:
        """Figure 5, line 5: a classic quorum of tuples at this recovery's ballot."""
        recovery = self.recoveries.get(message.command_id)
        if (recovery is None or recovery.done or message.ballot != recovery.ballot
                or not recovery.replies.vote(src, message)):
            return
        recovery.done = True
        self._resume(recovery.command, recovery.ballot,
                     [reply for reply in recovery.replies.payloads() if reply.known])
        self.stats.recoveries_completed += 1

    def _resume(self, command: Command, ballot: Ballot, known: List[RecoveryReply]) -> None:
        """Figure 5, lines 6-27: the recovery set is the tuples at the highest row
        ballot; resume from its most advanced status, stable before accepted
        before rejected before slow-pending before fast-pending.  No tuple: a
        fresh fast proposal."""
        top = max((reply.entry_ballot for reply in known), default=None)
        recovery_set: Dict[CommandStatus, List[RecoveryReply]] = {}
        for reply in known:
            if reply.entry_ballot == top:
                recovery_set.setdefault(CommandStatus(reply.status), []).append(reply)

        def resume(phase: str, reply: RecoveryReply, start) -> None:
            state = LeaderState(command, ballot, phase, reply.timestamp, None, None,
                                self.sim.now, set(reply.predecessors), recovered=True)
            self.leader_states[command.command_id] = state
            start(state)

        if STABLE in recovery_set:
            resume(PHASE_RETRY, recovery_set[STABLE][0], self._start_stable)
        elif ACCEPTED in recovery_set:
            resume(PHASE_FAST, recovery_set[ACCEPTED][0], self._start_retry)
        elif CommandStatus.REJECTED in recovery_set or not recovery_set:
            self._start_fast_proposal(command, ballot, self.timestamps.next_timestamp(),
                                      None, recovered=True)
        elif CommandStatus.SLOW_PENDING in recovery_set:
            resume(PHASE_FAST, recovery_set[CommandStatus.SLOW_PENDING][0],
                   self._start_slow_proposal)
        else:
            fast_pending = recovery_set[CommandStatus.FAST_PENDING]
            self._start_fast_proposal(command, ballot, fast_pending[0].timestamp,
                                      self._whitelist(command, fast_pending), recovered=True)

    def _whitelist(self, command: Command,
                   fast_pending: List[RecoveryReply]) -> Optional[FrozenSet[CommandId]]:
        """Figure 5, lines 16-25: what every fast quorum that may have decided the
        command agreed on.  A forced tuple whitelists the union of the reported
        predecessors; else, with at least ``recovery_majority`` tuples, a
        predecessor that fewer than ``recovery_majority`` of them lack; else none."""
        union = set().union(*(reply.predecessors for reply in fast_pending))
        union.discard(command.command_id)
        majority = self.quorums.recovery_majority
        if any(reply.forced for reply in fast_pending):
            return frozenset(union)
        if len(fast_pending) < majority:
            return None
        return frozenset(predecessor for predecessor in union
                         if sum(predecessor not in reply.predecessors
                                for reply in fast_pending) < majority)

    # ------------------------------------------------------- liveness

    def catchup_need(self):
        """The undelivered predecessors not stable here, named for a catch-up request."""
        missing = self.delivery.missing_predecessors()
        if not missing:
            return None
        return (0, tuple(f"{a}:{b}" for a, b in sorted(missing)[:32]))

    def catchup_supply(self, cursor, want):
        """STABLE again for each requested command stable here."""
        supplies = []
        for token in want:
            first, _, second = token.partition(":")
            try:
                row = self.history.get((int(first), int(second)))
            except ValueError:
                continue
            if row is not None and row.status is STABLE:
                supplies.append(Stable(command=row.command, ballot=row.ballot,
                                       timestamp=row.timestamp, predecessors=row.predecessors))
        return supplies
