"""CAESAR's acceptor side as it was before PR 23, for the handler differential.

:class:`ReferenceCaesarReplica` is a :class:`CaesarReplica` with the parent
commit's code put back verbatim: the four acceptor handlers, the deferred
``_answer_proposal`` every WAIT outcome went through, the delivery hooks, and
underneath them :meth:`CommandHistory.update` looking the entry up itself
and :meth:`WaitManager.evaluate` calling back for every outcome, an immediate
one included.  Every handler re-derives what it needs (``history.get``,
``index_of``, ``intern``) and announces every write to the wait manager
whether or not anything is parked — the behaviour the rewritten handlers
must reproduce message for message (``tests/test_caesar_differential.py``).

The only edits to the copied code: the wait manager's parked counter is the
public ``parked`` now, where the parent wrote ``_parked``, and a new entry is
told its bucket, which the parent fetched one statement later.  The delivery
manager's ``on_delivered`` hook is gone; ``_execute_then_announce`` stands in.

Underneath, the history, WAIT, delivery and COMPUTEPREDECESSORS are those of
``tests/reference_history.py``: one node-wide interner, one delivered mask.
So the differential also checks, message for message, that per-key indices
change nothing a peer or a client can see.

:class:`ReferenceLeaderReplica` is the other half: a :class:`CaesarReplica`
with the leader code of the commit before the leader round was slimmed, put
back verbatim — the :class:`LeaderState` dataclass, the ``_start_*`` phases,
the ``_on_*_reply`` handlers with ``_merge_fast_replies`` and
``_fast_quorum_unreachable``, ``_on_fast_proposal_timeout`` and
``_execute_stable``.  It keeps the retransmit round under ``("lead", id)``
with a ``done=`` predicate, arms its timers with closures and looks the
decision up again around an execution.  Two things underneath moved:
``QuorumTracker.payloads()`` is a live view now, where it was a list (the
copied code only reads it, with no vote in between), and the kernel's
``track_retransmit`` / ``resolve_retransmit`` wrappers are gone, so the
copied calls name ``self.retransmit.track`` / ``.resolve``, the methods the
wrappers forwarded to.  Recovery (shared) still
builds the current, slotted ``LeaderState``; the reference phases work on it
by attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, List, Optional, Set, Union

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.caesar import (PHASE_DONE, PHASE_FAST, PHASE_RETRY, PHASE_SLOW, CaesarReplica,
                               _freeze)
from repro.core.history import CommandStatus
from repro.core.messages import (
    FastPropose,
    FastProposeReply,
    Retry,
    RetryReply,
    SlowPropose,
    SlowProposeReply,
    Stable,
)
from repro.core.predecessors import _ParkedProposal
from repro.runtime.kernel import QuorumTracker, handles
from tests.reference_history import (CommandHistory, DeliveryManager, HistoryEntry, WaitManager,
                                     _KeyBucket, compute_predecessor_mask)


class ReferenceCommandHistory(CommandHistory):
    """UPDATE that finds the entry itself, whatever the caller holds."""

    def update(self, command: Command, timestamp: LogicalTimestamp,
               predecessors: Union[int, Iterable[CommandId]], status: CommandStatus,
               ballot: Ballot, forced: bool = False) -> HistoryEntry:
        """Insert or update the entry for ``command`` (the UPDATE of Section V-A).

        ``predecessors`` is either an interned bitmask (the hot path — stored
        as-is, no copy) or any iterable of command ids (interned on the way
        in).  An existing entry is mutated in place rather than replaced, so
        concurrent holders of the entry (e.g. the delivery manager's loop
        breaking) always observe the node's latest knowledge.
        """
        if isinstance(predecessors, int):
            mask = predecessors
        else:
            mask = self.mask_from_ids(predecessors)
        entry = self._entries.get(command.command_id)
        if entry is None:
            index = self.intern(command.command_id)
            bucket = self._by_key.get(command.key)
            if bucket is None:
                bucket = self._by_key[command.key] = _KeyBucket()
            entry = HistoryEntry(command=command, timestamp=timestamp,
                                 pred_mask=mask, status=status, ballot=ballot,
                                 forced=forced, index=index, bucket=bucket, history=self)
            self._entries[command.command_id] = entry
            self._entry_by_index[index] = entry
            bucket.insert(entry)
        else:
            if entry.timestamp != timestamp:
                bucket = self._by_key[command.key]
                bucket.discard(entry, entry.timestamp)
                entry.timestamp = timestamp
                bucket.insert(entry)
            entry.command = command
            entry.pred_mask = mask
            entry.status = status
            entry.ballot = ballot
            entry.forced = forced
        return entry


class ReferenceWaitManager(WaitManager):
    """WAIT that reports every outcome, immediate or not, through the callback."""

    def evaluate(self, command: Command, timestamp: LogicalTimestamp,
                 on_resolved: Callable[[bool, float], None]) -> None:
        """Run WAIT for a proposal, resolving now or parking it.

        Args:
            command: the proposed command.
            timestamp: the proposed timestamp.
            on_resolved: called with ``(ok, waited_ms)`` once WAIT terminates.
        """
        self_bit = 1 << self._history.intern(command.command_id)
        blocker_mask, witness_mask = self._scan_masks(command, timestamp, self_bit)
        if blocker_mask and self._enabled:
            parked = _ParkedProposal(command=command, bit=self_bit,
                                     timestamp=timestamp, on_resolved=on_resolved,
                                     parked_at=self._now(),
                                     blocker_mask=blocker_mask,
                                     witness_mask=witness_mask)
            self._parked_by_key.setdefault(command.key, []).append(parked)
            self.parked += 1
            return
        if blocker_mask and not self._enabled:
            # Ablation mode: a proposal that would have waited is rejected outright.
            on_resolved(False, 0.0)
            return
        on_resolved(not witness_mask, 0.0)


class ReferenceCaesarReplica(CaesarReplica):
    """The parent commit's acceptor handlers over the parent's UPDATE and WAIT."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.history = ReferenceCommandHistory()
        self.wait_manager = ReferenceWaitManager(self.history, lambda: self.sim.now,
                                                 enabled=self.config.wait_condition_enabled)
        self.delivery = DeliveryManager(self.history, self._execute_then_announce)

    def _execute_then_announce(self, command: Command) -> None:
        """The parent's delivery manager took two callbacks and ran them in this order."""
        self._execute_stable(command)
        self._after_delivery(command)

    @handles(FastPropose)
    def _on_fast_propose(self, src: int, message: FastPropose) -> None:
        """Acceptor side of the fast proposal phase (Figure 4, lines P11-P20)."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            # Already decided (e.g. a recovery finished first); nothing to do.
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not message.ballot > existing.ballot):
            # A retransmitted proposal at the same ballot must not downgrade
            # the entry a later retry already promoted to ACCEPTED.
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        whitelist_mask = (None if message.whitelist is None
                          else self.history.mask_from_ids(message.whitelist, command.key))
        predecessors = compute_predecessor_mask(self.history, command, message.timestamp,
                                                whitelist_mask)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        entry = self.history.update(command, message.timestamp, predecessors,
                                    CommandStatus.FAST_PENDING, message.ballot,
                                    forced=message.whitelist is not None)
        self.wait_manager.notify_entry(entry)

        def resolved(ok: bool, waited_ms: float) -> None:
            self._answer_proposal(src, command, message.ballot, message.timestamp,
                                  predecessors, ok, waited_ms, fast=True)

        self.wait_manager.evaluate(command, message.timestamp, resolved)

    @handles(SlowPropose)
    def _on_slow_propose(self, src: int, message: SlowPropose) -> None:
        """Acceptor side of the slow proposal phase (Figure 4, lines P31-P39)."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not message.ballot > existing.ballot):
            # See _on_fast_propose: never downgrade ACCEPTED on a resend.
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        predecessors = compute_predecessor_mask(self.history, command, message.timestamp)
        predecessors |= self.history.mask_from_ids(message.predecessors, command.key)
        self_index = self.history.index_of(command_id)
        if self_index is not None:
            predecessors &= ~(1 << self_index)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        entry = self.history.update(command, message.timestamp, predecessors,
                                    CommandStatus.SLOW_PENDING, message.ballot)
        self.wait_manager.notify_entry(entry)

        def resolved(ok: bool, waited_ms: float) -> None:
            self._answer_proposal(src, command, message.ballot, message.timestamp,
                                  predecessors, ok, waited_ms, fast=False)

        self.wait_manager.evaluate(command, message.timestamp, resolved)

    def _answer_proposal(self, leader: int, command: Command, ballot: Ballot,
                         timestamp: LogicalTimestamp, predecessors: int,
                         ok: bool, waited_ms: float, fast: bool) -> None:
        """Send the (possibly delayed) OK/NACK answer for a proposal.

        ``predecessors`` is the interned bitmask computed when the proposal
        was evaluated; it is translated back to wire-format command ids only
        at the send below.
        """
        command_id = command.command_id
        if waited_ms > 0:
            self.wait_time_samples.append(waited_ms)
        if not self.ballots.allows(command_id, ballot):
            # A higher ballot took over while this proposal was parked.
            return
        entry = self.history.get(command_id)
        if entry is not None and entry.status in (CommandStatus.ACCEPTED, CommandStatus.STABLE):
            # A retry or stable overtook the parked proposal; the leader no
            # longer needs this answer.
            return
        if ok:
            reply_ts = timestamp
            reply_pred = predecessors
            status = CommandStatus.FAST_PENDING if fast else CommandStatus.SLOW_PENDING
            # An immediate OK finds the entry exactly as the proposal handler
            # stored it one call earlier: nothing to write or re-announce.
            unchanged = (entry is not None and entry.command is command
                         and entry.timestamp == timestamp and entry.pred_mask == reply_pred
                         and entry.status is status and entry.ballot == ballot)
            if not unchanged:
                entry = self.history.update(command, timestamp, reply_pred, status, ballot,
                                            forced=entry.forced if entry is not None else False)
                self.wait_manager.notify_entry(entry)
        else:
            self.stats.nacks_sent += 1
            reply_ts = self.timestamps.suggestion_greater_than(timestamp)
            reply_pred = compute_predecessor_mask(self.history, command, reply_ts)
            entry = self.history.update(command, reply_ts, reply_pred,
                                        CommandStatus.REJECTED, ballot)
            self.wait_manager.notify_entry(entry)
        reply_cls = FastProposeReply if fast else SlowProposeReply
        reply_ids = self.history.ids_from_mask(reply_pred, command.key)
        self.send(leader, reply_cls(command_id=command_id, ballot=ballot, timestamp=reply_ts,
                                    predecessors=reply_ids, ok=ok))

    @handles(Retry)
    def _on_retry(self, src: int, message: Retry) -> None:
        """Acceptor side of the retry phase (Figure 4, lines R5-R8): never rejects."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        entry = self.history.update(command, message.timestamp,
                                    self.history.mask_from_ids(message.predecessors, command.key),
                                    CommandStatus.ACCEPTED, message.ballot)
        extra = compute_predecessor_mask(self.history, command, message.timestamp)
        self.consume_cpu(self.cost_model.dependency_cost(extra.bit_count()))
        self.wait_manager.drop_command(command_id, command.key)
        self.wait_manager.notify_entry(entry)
        self.send(src, RetryReply(command_id=command_id, ballot=message.ballot,
                                  timestamp=message.timestamp,
                                  predecessors=self.history.ids_from_mask(extra, command.key)))

    @handles(Stable)
    def _on_stable(self, src: int, message: Stable) -> None:
        """Acceptor side of the stable phase (Figure 4, lines S2-S7)."""
        command = message.command
        command_id = command.command_id
        existing = self.history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        self.ballots.observe(command_id, message.ballot)
        self.timestamps.observe(message.timestamp)
        predecessors = self.history.mask_from_ids(message.predecessors, command.key)
        self_index = self.history.index_of(command_id)
        if self_index is not None:
            predecessors &= ~(1 << self_index)
        entry = self.history.update(command, message.timestamp, predecessors,
                                    CommandStatus.STABLE, message.ballot)
        self.wait_manager.drop_command(command_id, command.key)
        self.wait_manager.notify_entry(entry)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        self.delivery.on_stable(command)
        self.note_progress_gap()

    def _execute_stable(self, command: Command) -> None:
        """Callback from the delivery manager: apply the command locally."""
        decision = self.decisions.get(command.command_id)
        self.execute_command(command)
        if decision is not None and decision.decided_at is not None:
            self.record_phase_time(command.command_id, "deliver",
                                   self.sim.now - decision.decided_at)

    def _after_delivery(self, command: Command) -> None:
        """Hook run after each delivery: waiting proposals may now resolve."""
        entry = self.history.get(command.command_id)
        if entry is not None:
            self.wait_manager.notify_entry(entry)


@dataclass
class LeaderState:
    """Book-keeping the command leader keeps while driving one command."""

    command: Command
    ballot: Ballot
    phase: str
    timestamp: LogicalTimestamp
    whitelist: Optional[FrozenSet[CommandId]]
    votes: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    predecessors: Set[CommandId] = field(default_factory=set)
    #: the pending proposal timeout: the clock's cancellable handle.
    timer: Optional[object] = None
    started_at: float = 0.0
    phase_started_at: float = 0.0
    went_slow: bool = False
    recovered: bool = False


class ReferenceLeaderReplica(CaesarReplica):
    """The leader half as it was before: the current acceptor, the previous leader."""

    def _start_fast_proposal(self, command: Command, ballot: Ballot,
                             timestamp: LogicalTimestamp,
                             whitelist: Optional[FrozenSet[CommandId]],
                             recovered: bool = False) -> None:
        """FASTPROPOSALPHASE (Figure 4, lines P1-P10)."""
        state = LeaderState(command=command, ballot=ballot, phase=PHASE_FAST,
                            timestamp=timestamp, whitelist=whitelist,
                            votes=QuorumTracker(self.quorums.fast),
                            started_at=self.sim.now, phase_started_at=self.sim.now,
                            recovered=recovered)
        self.leader_states[command.command_id] = state
        state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
                                     lambda: self._on_fast_proposal_timeout(command.command_id))
        proposal = FastPropose(command=command, ballot=ballot, timestamp=timestamp,
                               whitelist=whitelist)
        self.broadcast(proposal)
        self.retransmit.track(("lead", command.command_id), proposal,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == PHASE_DONE)

    def _start_slow_proposal(self, state: LeaderState) -> None:
        """SLOWPROPOSALPHASE (Figure 4, lines P21-P30), after a fast-quorum timeout."""
        self.stats.slow_proposals += 1
        state.phase = PHASE_SLOW
        state.votes = QuorumTracker(self.quorums.classic)
        state.phase_started_at = self.sim.now
        state.went_slow = True
        proposal = SlowPropose(command=state.command, ballot=state.ballot,
                               timestamp=state.timestamp,
                               predecessors=_freeze(state.predecessors))
        self.broadcast(proposal)
        self.retransmit.track(("lead", state.command.command_id), proposal,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == PHASE_DONE)

    def _start_retry(self, state: LeaderState) -> None:
        """RETRYPHASE (Figure 4, lines R1-R4)."""
        self.stats.retries += 1
        state.phase = PHASE_RETRY
        state.votes = QuorumTracker(self.quorums.classic)
        state.went_slow = True
        command_id = state.command.command_id
        self.record_phase_time(command_id, "propose", self.sim.now - state.phase_started_at)
        state.phase_started_at = self.sim.now
        retry = Retry(command=state.command, ballot=state.ballot,
                      timestamp=state.timestamp,
                      predecessors=_freeze(state.predecessors))
        self.broadcast(retry)
        self.retransmit.track(("lead", command_id), retry,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == PHASE_DONE)

    def _start_stable(self, state: LeaderState) -> None:
        """STABLEPHASE (Figure 4, lines S1): broadcast the final decision."""
        command_id = state.command.command_id
        if state.recovered:
            kind = DecisionKind.RECOVERED
        elif state.went_slow:
            kind = DecisionKind.SLOW
        else:
            kind = DecisionKind.FAST
        decision = self.decisions.get(command_id)
        if decision is not None:  # record_phase_time + record_decided: one lookup, one clock read
            now = self.sim.now
            phase = "retry" if state.phase == PHASE_RETRY else "propose"
            decision.phase_times[phase] = (decision.phase_times.get(phase, 0.0)
                                           + (now - state.phase_started_at))
            if decision.decided_at is None:
                decision.decided_at = now
                decision.kind = kind
        if state.timer is not None:
            state.timer.cancel()
        state.phase = PHASE_DONE
        del self.leader_states[command_id]
        self.retransmit.resolve(("lead", command_id))
        if kind is DecisionKind.FAST:
            self.stats.fast_decisions += 1
        else:
            self.stats.slow_decisions += 1
        self.broadcast(Stable(command=state.command, ballot=state.ballot,
                              timestamp=state.timestamp,
                              predecessors=_freeze(state.predecessors)))

    def _on_fast_proposal_timeout(self, command_id: CommandId) -> None:
        """Fall back to the slow proposal phase when a fast quorum is unavailable."""
        state = self.leader_states.get(command_id)
        if state is None or state.phase != PHASE_FAST:
            return
        replies = state.votes.payloads()
        if len(replies) < self.quorums.classic:
            # Not even a classic quorum yet: keep waiting (the cluster may have
            # more than f slow/crashed nodes right now).
            state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
                                         lambda: self._on_fast_proposal_timeout(command_id))
            return
        self._merge_fast_replies(state)
        if any(not reply.ok for reply in replies):
            self._start_retry(state)
        else:
            self._start_slow_proposal(state)

    def _merge_fast_replies(self, state: LeaderState) -> List[FastProposeReply]:
        """Aggregate reply timestamps/predecessors (Figure 4, lines P3-P4)."""
        replies = state.votes.payloads()
        timestamps = [reply.timestamp for reply in replies]
        if timestamps:
            state.timestamp = max(timestamps + [state.timestamp])
        for reply in replies:
            state.predecessors.update(reply.predecessors)
        state.predecessors.discard(state.command.command_id)
        return replies

    @handles(FastProposeReply)
    def _on_fast_propose_reply(self, src: int, message: FastProposeReply) -> None:
        """Leader side of fast-proposal reply aggregation (Figure 4, lines P2-P10)."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != PHASE_FAST or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            if self._fast_quorum_unreachable(state):
                self._on_fast_proposal_timeout(message.command_id)
            return
        replies = self._merge_fast_replies(state)
        if any(not reply.ok for reply in replies):
            self._start_retry(state)
        else:
            self._start_stable(state)

    def _fast_quorum_unreachable(self, state: LeaderState) -> bool:
        """True when every node the detector still trusts has already voted.

        The missing fast-quorum votes can then only come from suspected
        nodes, so waiting out the full proposal timer is pointless; the
        leader falls back immediately.  Requires a classic quorum of actual
        votes so the timeout handler can complete the slow fallback.
        """
        detector = self.failure_detector
        if detector is None or not detector.suspected:
            return False
        if state.votes.count < self.quorums.classic:
            return False
        voters = set(state.votes.voters())
        return all(node_id in voters or node_id in detector.suspected
                   for node_id in self.network.node_ids)

    @handles(SlowProposeReply)
    def _on_slow_propose_reply(self, src: int, message: SlowProposeReply) -> None:
        """Leader side of slow-proposal reply aggregation (Figure 4, lines P22-P30)."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != PHASE_SLOW or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            return
        replies = state.votes.payloads()
        timestamps = [reply.timestamp for reply in replies]
        state.timestamp = max(timestamps + [state.timestamp])
        for reply in replies:
            state.predecessors.update(reply.predecessors)
        state.predecessors.discard(message.command_id)
        if any(not reply.ok for reply in replies):
            self._start_retry(state)
        else:
            self._start_stable(state)

    @handles(RetryReply)
    def _on_retry_reply(self, src: int, message: RetryReply) -> None:
        """Leader side of retry aggregation (Figure 4, lines R2-R4)."""
        state = self.leader_states.get(message.command_id)
        if state is None or state.phase != PHASE_RETRY or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            return
        for reply in state.votes.payloads():
            state.predecessors.update(reply.predecessors)
        state.predecessors.discard(message.command_id)
        self._start_stable(state)

    def _execute_stable(self, command: Command) -> None:
        """Callback from the delivery manager: apply the command locally."""
        decision = self.decisions.get(command.command_id)
        self.execute_command(command)
        if decision is not None and decision.decided_at is not None:
            self.record_phase_time(command.command_id, "deliver",
                                   self.sim.now - decision.decided_at)
        if self.wait_manager.parked:  # BREAKLOOP may have edited the entry
            self.wait_manager.notify_entry(self.history.get(command.command_id))
