"""The CAESAR replica: multi-leader Generalized Consensus by timestamp agreement.

One :class:`CaesarReplica` instance plays both roles the paper describes:

* **command leader** for the commands its co-located clients submit — it runs
  the fast proposal phase, and when needed the slow proposal and retry
  phases, before broadcasting the STABLE decision;
* **acceptor** for every command in the system — it evaluates proposals
  against its history ``H``, enforces the wait condition, and delivers stable
  commands in predecessor order.

The phase structure, message names and decision rules follow the pseudocode
of Figures 3-5 of the paper; the recovery phase lives in
:mod:`repro.core.recovery` and history collection (``history_gc``, which the
paper does not have) in :mod:`repro.core.collection`.  Dispatch, quorum
tracking and the failure detector come from the runtime kernel
(:mod:`repro.runtime.kernel`) — this module contains protocol logic only.

A command's ballot is kept once.  The promise an acceptor made for a command
(the highest ballot it joined, Section V-A's ``ballot``) is its history
entry's ballot; ``promises`` holds an id only where the promise is above that
(a recovery prepare, a ``Stable`` below the promise) or there is no entry, so
it stays empty in a run without failures.  The executed bit is kept once too:
it is the command's bit in its key's ``delivered`` mask (:meth:`has_executed`).

An acceptor handler looks its command up once and hands the entry it found
(or ``None``) to COMPUTEPREDECESSORS and UPDATE, and the entry UPDATE wrote to
WAIT and delivery; the wait manager hears of a write only while something is
parked.  A fast proposal
that passes WAIT at once is answered in the handler; ``_answer_proposal`` runs
for every other outcome: a NACK, a slow proposal, a parked one once it resolves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import LogicalTimestamp, TimestampGenerator
from repro.core.collection import REPORT_EVERY_MS, HistoryCollector
from repro.core.delivery import DeliveryManager
from repro.core.history import CommandHistory, CommandStatus, HistoryEntry
from repro.core.messages import (
    Delivered,
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
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from repro.core.recovery import RecoveryManager
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.costs import CostModel
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles

#: Leader-side phases a command can be in.
PHASE_FAST = "fast_proposal"
PHASE_SLOW = "slow_proposal"
PHASE_RETRY = "retry"
PHASE_DONE = "done"

#: How long a command leader waits for a fast quorum of FASTPROPOSE replies
#: before falling back to the slow proposal phase with a classic quorum
#: (Section V-D).
FAST_PROPOSAL_TIMEOUT_MS = 1500.0

#: Shared instance for the (very common) empty predecessor set carried by
#: wire messages, so the hot path does not allocate a fresh frozenset per
#: broadcast at low conflict rates.
_EMPTY_FROZENSET: FrozenSet = frozenset()


def _freeze(ids) -> FrozenSet:
    """Frozen copy of ``ids``, reusing one shared object when empty."""
    return frozenset(ids) if ids else _EMPTY_FROZENSET


class LeaderState:
    """Book-keeping the command leader keeps while driving one command.

    Built with the vote collector of the phase it starts in; a state built by
    recovery gets ``votes=None`` and the tracker of the phase it resumes.
    """

    __slots__ = ("command", "ballot", "phase", "timestamp", "whitelist", "votes",
                 "predecessors", "timer", "phase_started_at", "went_slow", "recovered")

    def __init__(self, command: Command, ballot: Ballot, phase: str,
                 timestamp: LogicalTimestamp, whitelist: Optional[FrozenSet[CommandId]],
                 votes: Optional[QuorumTracker], now: float,
                 predecessors: Optional[Set[CommandId]],
                 recovered: bool) -> None:
        self.command = command
        self.ballot = ballot
        self.phase = phase
        self.timestamp = timestamp
        self.whitelist = whitelist
        self.votes = votes
        self.predecessors: Set[CommandId] = set() if predecessors is None else predecessors
        #: the pending proposal timeout: the clock's cancellable handle.
        self.timer: Optional[object] = None
        self.phase_started_at = now
        self.went_slow = False
        self.recovered = recovered


class CaesarReplica(ProtocolKernel):
    """A CAESAR node (command leader + acceptor) on the simulated substrate.

    Args:
        node_id: index of this replica in the cluster.
        sim: the substrate's clock.
        network: the substrate's transport factory.
        quorums: quorum sizes (classic and fast) for the cluster size.
        state_machine: local replicated state machine.
        cost_model: CPU cost model.
        wait_condition: when ``False`` an acceptor immediately rejects a
            proposal that would otherwise have to wait (the ablation of the
            paper's key mechanism).
    """

    protocol_name = "caesar"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None,
                 wait_condition: bool = True) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.timestamps = TimestampGenerator(node_id)
        self.history = CommandHistory()
        self.wait_manager = WaitManager(self.history, lambda: self.sim.now,
                                        enabled=wait_condition)
        self.delivery = DeliveryManager(self.history, self._execute_stable)
        self.leader_states: Dict[CommandId, LeaderState] = {}
        # The executed bit is the delivered bit: delivery raises on one already
        # set, and has_executed reads it.
        self._executed_ids = None
        #: The promises above their command's entry's ballot, or of a command
        #: without an entry (module docstring); :meth:`promised` reads either.
        self.promises: Dict[CommandId, Ballot] = {}
        self.recovery = RecoveryManager(self)
        self.collector: Optional[HistoryCollector] = None
        self._report_timer = None

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Become the leader of ``command`` and start its fast proposal phase."""
        timestamp = self.timestamps.next_timestamp()
        self._start_fast_proposal(command, Ballot.initial(self.node_id), timestamp,
                                  whitelist=None)

    # ------------------------------------------------------------- ballots

    def promised(self, command_id: CommandId) -> Optional[Ballot]:
        """The highest ballot this replica joined for a command (``None``: none yet)."""
        ballot = self.promises.get(command_id)
        if ballot is None:
            entry = self.history.get(command_id)
            ballot = entry.ballot if entry is not None else None
        return ballot

    def _joinable(self, command_id: CommandId, ballot: Ballot,
                  entry: Optional[HistoryEntry]) -> bool:
        """Whether ``ballot`` is at least the command's promise; ``entry`` is its
        entry, which the caller has just looked up (``None``: it has none)."""
        promised = self.promises.get(command_id) if self.promises else None
        if promised is None:
            if entry is None:
                return True
            promised = entry.ballot
        # Identity first: round-0 ballots are one instance per leader.
        return promised is ballot or ballot >= promised

    # ------------------------------------------------------- leader: phases

    def _start_fast_proposal(self, command: Command, ballot: Ballot,
                             timestamp: LogicalTimestamp,
                             whitelist: Optional[FrozenSet[CommandId]],
                             recovered: bool = False) -> None:
        """FASTPROPOSALPHASE (Figure 4, lines P1-P10).

        The command's retransmit round is keyed by its id; every phase
        replaces it, and it ends at its tracker's quorum or at ``_start_stable``.
        """
        command_id = command.command_id
        votes = QuorumTracker(self.quorums.fast)
        state = LeaderState(command, ballot, PHASE_FAST, timestamp, whitelist, votes,
                            self.sim.now, None, recovered)
        self.leader_states[command_id] = state
        state.timer = self.set_timer(FAST_PROPOSAL_TIMEOUT_MS,
                                     self._on_fast_proposal_timeout, command_id)
        proposal = FastPropose(command, ballot, timestamp, whitelist)
        self.broadcast(proposal)
        self.retransmit.track(command_id, proposal, tracker=votes)

    def _start_slow_proposal(self, state: LeaderState) -> None:
        """SLOWPROPOSALPHASE (Figure 4, lines P21-P30), after a fast-quorum timeout."""
        self.stats.slow_proposals += 1
        state.phase = PHASE_SLOW
        state.votes = QuorumTracker(self.quorums.classic)
        state.phase_started_at = self.sim.now
        state.went_slow = True
        proposal = SlowPropose(state.command, state.ballot, state.timestamp,
                               _freeze(state.predecessors))
        self.broadcast(proposal)
        self.retransmit.track(state.command.command_id, proposal, tracker=state.votes)

    def _start_retry(self, state: LeaderState) -> None:
        """RETRYPHASE (Figure 4, lines R1-R4)."""
        self.stats.retries += 1
        state.phase = PHASE_RETRY
        state.votes = QuorumTracker(self.quorums.classic)
        state.went_slow = True
        command_id = state.command.command_id
        now = self.sim.now
        decision = self.decisions.get(command_id)
        if decision is not None:
            decision.propose_ms += now - state.phase_started_at
        state.phase_started_at = now
        retry = Retry(state.command, state.ballot, state.timestamp,
                      _freeze(state.predecessors))
        self.broadcast(retry)
        self.retransmit.track(command_id, retry, tracker=state.votes)

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
        if decision is not None:  # the phase's time + record_decided: one lookup, one clock read
            now = self.sim.now
            if state.phase == PHASE_RETRY:
                decision.retry_ms += now - state.phase_started_at
            else:
                decision.propose_ms += now - state.phase_started_at
            if decision.decided_at is None:
                decision.decided_at = now
                decision.kind = kind
        if state.timer is not None:
            state.timer.cancel()
        state.phase = PHASE_DONE
        del self.leader_states[command_id]
        self.retransmit.resolve(command_id)
        if kind is DecisionKind.FAST:
            self.stats.fast_decisions += 1
        else:
            self.stats.slow_decisions += 1
        self.broadcast(Stable(state.command, state.ballot, state.timestamp,
                              _freeze(state.predecessors)))

    def _on_fast_proposal_timeout(self, command_id: CommandId) -> None:
        """Fall back to the slow proposal phase when a fast quorum is unavailable."""
        state = self.leader_states.get(command_id)
        if state is None or state.phase != PHASE_FAST:
            return
        if state.votes.count < self.quorums.classic:
            # Not even a classic quorum yet: keep waiting (the cluster may have
            # more than f slow/crashed nodes right now).
            state.timer = self.set_timer(FAST_PROPOSAL_TIMEOUT_MS,
                                         self._on_fast_proposal_timeout, command_id)
            return
        if self._merge_replies(state):
            self._start_slow_proposal(state)
        else:
            self._start_retry(state)

    @staticmethod
    def _merge_replies(state: LeaderState) -> bool:
        """Aggregate proposal replies in one walk (Figure 4, lines P3-P4 and P23-P24).

        The state's timestamp becomes the highest proposed (the first reply
        holding it wins a tie; the leader's own only when strictly higher)
        and its predecessors the union, less the command itself.  Returns
        whether every reply was OK.
        """
        highest = None
        predecessors = state.predecessors
        all_ok = True
        for reply in state.votes.payloads():
            timestamp = reply.timestamp
            # Usually the very object: an OK echoes the proposal's timestamp.
            if highest is None or (timestamp is not highest and timestamp > highest):
                highest = timestamp
            if reply.predecessors:
                predecessors.update(reply.predecessors)
            if not reply.ok:
                all_ok = False
        current = state.timestamp
        if highest is not None and highest is not current and not current > highest:
            state.timestamp = highest
        predecessors.discard(state.command.command_id)
        return all_ok

    # -------------------------------------------------- acceptor: proposals

    @handles(FastPropose)
    def _on_fast_propose(self, src: int, message: FastPropose) -> None:
        """Acceptor side of the fast proposal phase (Figure 4, lines P11-P20)."""
        command, ballot, timestamp = message.command, message.ballot, message.timestamp
        command_id = command.command_id
        history = self.history
        existing = history.get(command_id)
        if not self._joinable(command_id, ballot, existing):
            return
        if existing is not None and existing.status is CommandStatus.STABLE:
            # Already decided (e.g. a recovery finished first); nothing to do.
            return
        if (existing is None and self.stats.commands_collected
                and self.delivery.is_delivered(command_id)):
            return  # collected: decided and delivered everywhere
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not ballot > existing.ballot):
            # A retransmitted proposal at the same ballot must not downgrade
            # the entry a later retry already promoted to ACCEPTED.
            return
        self.timestamps.observe(timestamp)
        whitelist_mask = (None if message.whitelist is None
                          else history.mask_from_ids(message.whitelist, command.key))
        predecessors = compute_predecessor_mask(history, command, timestamp, existing,
                                                whitelist_mask)
        if predecessors:  # CostModel.dependency_cost of a non-empty set
            self.consume_cpu(self.cost_model.per_dependency_ms * predecessors.bit_count())
        entry = history.update(command, timestamp, predecessors, CommandStatus.FAST_PENDING,
                               ballot, existing, forced=message.whitelist is not None)
        if self.promises:  # the entry holds the promise now
            self.promises.pop(command_id, None)
        parked = self.wait_manager.parked and self.wait_manager.has_parked(command.key)
        if parked:
            self.wait_manager.notify_entry(entry)
        proposal = (src, command, ballot, timestamp, predecessors, True)
        verdict = self.wait_manager.evaluate(command, timestamp, self._answer_proposal,
                                             entry, proposal)
        if verdict and not parked:
            # Nothing was parked on the key, so nothing ran since the entry was
            # written: no re-validation needed.
            self.send(src, FastProposeReply(
                command_id, ballot, timestamp,
                history.ids_from_mask(predecessors, command.key), True))
        elif verdict is not None:
            # The notify cascade may have answered an older copy of this
            # proposal (a NACK rewrites the entry REJECTED): _answer_proposal
            # writes the entry back before answering.
            self._answer_proposal(verdict, *proposal)

    @handles(SlowPropose)
    def _on_slow_propose(self, src: int, message: SlowPropose) -> None:
        """Acceptor side of the slow proposal phase (Figure 4, lines P31-P39)."""
        command = message.command
        command_id = command.command_id
        history = self.history
        existing = history.get(command_id)
        if not self._joinable(command_id, message.ballot, existing):
            return
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        if (existing is None and self.stats.commands_collected
                and self.delivery.is_delivered(command_id)):
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not message.ballot > existing.ballot):
            # See _on_fast_propose: never downgrade ACCEPTED on a resend.
            return
        self.timestamps.observe(message.timestamp)
        predecessors = compute_predecessor_mask(history, command, message.timestamp, existing)
        predecessors |= history.mask_from_ids(message.predecessors, command.key)
        self_index = existing.index if existing is not None else history.index_of(command_id)
        if self_index is not None:
            predecessors &= ~(1 << self_index)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        entry = history.update(command, message.timestamp, predecessors,
                               CommandStatus.SLOW_PENDING, message.ballot, existing)
        if self.promises:
            self.promises.pop(command_id, None)
        if self.wait_manager.parked:
            self.wait_manager.notify_entry(entry)
        proposal = (src, command, message.ballot, message.timestamp, predecessors, False)
        verdict = self.wait_manager.evaluate(command, message.timestamp, self._answer_proposal,
                                             entry, proposal)
        if verdict is not None:
            self._answer_proposal(verdict, *proposal)

    def _answer_proposal(self, ok: bool, leader: int, command: Command, ballot: Ballot,
                         timestamp: LogicalTimestamp, predecessors: int, fast: bool) -> None:
        """Send the OK/NACK answer for a parked, rejected or slow proposal.

        ``predecessors`` is the interned bitmask computed when the proposal
        was evaluated; it is translated back to wire-format command ids only
        at the send below.
        """
        command_id = command.command_id
        history = self.history
        entry = history.get(command_id)
        if not self._joinable(command_id, ballot, entry):
            # A higher ballot took over while this proposal was parked.
            return
        if entry is not None and entry.status in (CommandStatus.ACCEPTED, CommandStatus.STABLE):
            # A retry or stable overtook the parked proposal; the leader no
            # longer needs this answer.
            return
        if ok:
            reply_ts, reply_pred = timestamp, predecessors
            status = CommandStatus.FAST_PENDING if fast else CommandStatus.SLOW_PENDING
            # A proposal that never parked finds the entry exactly as its
            # handler stored it one call earlier: nothing to write or re-announce.
            unchanged = (entry is not None and entry.command is command
                         and entry.stamp == timestamp.counter << 32 | timestamp.node_id
                         and entry.pred_mask == reply_pred
                         and entry.status is status and entry.ballot == ballot)
            if not unchanged:
                entry = history.update(command, timestamp, reply_pred, status, ballot, entry,
                                       forced=entry is not None and entry.forced)
                if self.wait_manager.parked:
                    self.wait_manager.notify_entry(entry)
        else:
            self.stats.nacks_sent += 1
            reply_ts = self.timestamps.suggestion_greater_than(timestamp)
            reply_pred = compute_predecessor_mask(history, command, reply_ts, entry)
            entry = history.update(command, reply_ts, reply_pred,
                                   CommandStatus.REJECTED, ballot, entry)
            if self.wait_manager.parked:
                self.wait_manager.notify_entry(entry)
        if self.promises:
            self.promises.pop(command_id, None)
        reply_cls = FastProposeReply if fast else SlowProposeReply
        reply_ids = history.ids_from_mask(reply_pred, command.key)
        self.send(leader, reply_cls(command_id, ballot, reply_ts, reply_ids, ok))

    # ------------------------------------------------------- leader: replies

    @handles(FastProposeReply)
    def _on_fast_propose_reply(self, src: int, message: FastProposeReply) -> None:
        """Leader side of fast-proposal reply aggregation (Figure 4, lines P2-P10)."""
        state = self.leader_states.get(message.command_id)
        if state is None:
            return
        # Identity first: round-0 ballots are one instance per leader.
        ballot = message.ballot
        if state.phase != PHASE_FAST or (state.ballot is not ballot and state.ballot != ballot):
            return
        if not state.votes.vote(src, message):
            detector = self.failure_detector
            if (detector is not None and detector.suspected
                    and self._fast_quorum_unreachable(state, detector)):
                self._on_fast_proposal_timeout(message.command_id)
            return
        if self._merge_replies(state):
            self._start_stable(state)
        else:
            self._start_retry(state)

    def _fast_quorum_unreachable(self, state: LeaderState, detector) -> bool:
        """True when every node the (suspecting) ``detector`` still trusts has voted.

        The missing fast-quorum votes can then only come from suspected
        nodes, so waiting out the full proposal timer is pointless; the
        leader falls back immediately.  Requires a classic quorum of actual
        votes so the timeout handler can complete the slow fallback.
        """
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
        if self._merge_replies(state):
            self._start_stable(state)
        else:
            self._start_retry(state)

    @handles(Retry)
    def _on_retry(self, src: int, message: Retry) -> None:
        """Acceptor side of the retry phase (Figure 4, lines R5-R8): never rejects."""
        command = message.command
        command_id = command.command_id
        history = self.history
        existing = history.get(command_id)
        if not self._joinable(command_id, message.ballot, existing):
            return
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        if (existing is None and self.stats.commands_collected
                and self.delivery.is_delivered(command_id)):
            return
        self.timestamps.observe(message.timestamp)
        entry = history.update(command, message.timestamp,
                               history.mask_from_ids(message.predecessors, command.key),
                               CommandStatus.ACCEPTED, message.ballot, existing)
        if self.promises:
            self.promises.pop(command_id, None)
        extra = compute_predecessor_mask(history, command, message.timestamp, entry)
        self.consume_cpu(self.cost_model.dependency_cost(extra.bit_count()))
        if self.wait_manager.parked:
            self.wait_manager.drop_command(command_id, command.key)
            self.wait_manager.notify_entry(entry)
        self.send(src, RetryReply(command_id, message.ballot, message.timestamp,
                                  history.ids_from_mask(extra, command.key)))

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

    # --------------------------------------------------------- stable phase

    @handles(Stable)
    def _on_stable(self, src: int, message: Stable) -> None:
        """Acceptor side of the stable phase (Figure 4, lines S2-S7)."""
        command = message.command
        command_id = command.command_id
        history = self.history
        existing = history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        if (existing is None and self.stats.commands_collected
                and self.delivery.is_delivered(command_id)):
            return
        ballot = message.ballot
        promised = self.promises.get(command_id) if self.promises else None
        if promised is None and existing is not None:
            promised = existing.ballot
        self.timestamps.observe(message.timestamp)
        predecessors = 0
        if message.predecessors:
            predecessors = history.mask_from_ids(message.predecessors, command.key)
            # With no entry yet, the translation may just have interned the id.
            self_index = existing.index if existing is not None else history.index_of(command_id)
            if self_index is not None:
                predecessors &= ~(1 << self_index)
        entry = history.update(command, message.timestamp, predecessors,
                               CommandStatus.STABLE, ballot, existing)
        # A decision is written at its own ballot; a promise above it stays.
        if promised is not None and promised is not ballot and not ballot >= promised:
            self.promises[command_id] = promised
        elif self.promises:
            self.promises.pop(command_id, None)
        if self.wait_manager.parked:
            self.wait_manager.drop_command(command_id, command.key)
            self.wait_manager.notify_entry(entry)
        if predecessors:  # CostModel.dependency_cost of a non-empty set
            self.consume_cpu(self.cost_model.per_dependency_ms * predecessors.bit_count())
        self.delivery.on_stable(command, entry)
        if self.delivery.pending_count():  # else catchup_need() has nothing to report
            self.note_progress_gap()

    # --------------------------------------------------------------- catch-up

    def catchup_need(self):
        """Stuck when pending stable commands wait on unknown predecessors."""
        if self.delivery.pending_count() == 0:
            return None
        missing = self.delivery.missing_predecessors()
        if not missing:
            return None
        tokens = tuple(f"{a}:{b}" for a, b in sorted(missing)[:32])
        return (0, tokens)

    def catchup_supply(self, cursor, want):
        """Replay Stable messages for the requested commands known stable here."""
        supplies = []
        for token in want:
            first, _, second = token.partition(":")
            try:
                command_id = (int(first), int(second))
            except ValueError:
                continue
            entry = self.history.get(command_id)
            if entry is None or entry.status is not CommandStatus.STABLE:
                continue
            supplies.append(Stable(command=entry.command, ballot=entry.ballot,
                                   timestamp=entry.timestamp,
                                   predecessors=entry.predecessors))
        return supplies

    # ------------------------------------------------------------- recovery

    def on_suspect(self, peer: int) -> None:
        """Failure-detector hook (delegated to the manager)."""
        self.recovery.on_suspect(peer)

    @handles(Recovery)
    def _on_recovery(self, src: int, message: Recovery) -> None:
        """Acceptor side of the recovery prepare (delegated to the manager)."""
        command_id = message.command.command_id
        if (self.stats.commands_collected and command_id not in self.history
                and self.delivery.is_delivered(command_id)):
            return  # collected: there is no tuple left to answer with
        self.recovery.on_recovery_message(src, message)

    @handles(RecoveryReply)
    def _on_recovery_reply(self, src: int, message: RecoveryReply) -> None:
        """Recovering-leader side of recovery replies (delegated to the manager)."""
        self.recovery.on_recovery_reply(src, message)

    def has_executed(self, command_id: CommandId) -> bool:
        """Whether the command was executed here: its delivered bit, which a
        collected command keeps."""
        return self.delivery.is_delivered(command_id)

    def _execute_stable(self, command: Command) -> None:
        """Callback from the delivery manager: apply the command locally."""
        decision = self.execute_command(command)
        if decision is not None and decision.decided_at is not None:
            decision.deliver_ms += self.sim.now - decision.decided_at
        if self.wait_manager.parked:  # BREAKLOOP may have edited the entry
            self.wait_manager.notify_entry(self.history.get(command.command_id))

    # ----------------------------------------------------- history collection

    def _on_report_timer(self) -> None:
        """Report deliveries to the peers and collect, every ``REPORT_EVERY_MS``."""
        self.collector.report()
        self._report_timer = self.set_timer(REPORT_EVERY_MS, self._on_report_timer)

    @handles(Delivered)
    def _on_delivered(self, src: int, message: Delivered) -> None:
        """A peer's delivery report (ignored unless ``history_gc`` is on)."""
        if self.collector is not None:
            self.collector.on_report(src, message)

    # ------------------------------------------------------------- life cycle

    def start(self) -> None:
        """The kernel's failure detector, and history collection when it is on."""
        super().start()
        if self.history_gc and self.collector is None:
            self.collector = HistoryCollector(self)
            self._report_timer = self.set_timer(REPORT_EVERY_MS, self._on_report_timer)

    def on_restart(self) -> None:
        """Re-arm what the crash silently killed: the kernel's timers, each fast
        proposal's timeout (one that fired while down was skipped) and the
        delivery reports."""
        super().on_restart()
        if self._report_timer is not None:
            self._report_timer.cancel()
            self._report_timer = self.set_timer(REPORT_EVERY_MS, self._on_report_timer)
        for command_id, state in self.leader_states.items():
            if state.phase == PHASE_FAST:
                if state.timer is not None:
                    state.timer.cancel()
                state.timer = self.set_timer(FAST_PROPOSAL_TIMEOUT_MS,
                                             self._on_fast_proposal_timeout, command_id)

    # ------------------------------------------------------------- telemetry

    def average_wait_ms(self) -> float:
        """Mean time proposals spent parked in the wait condition on this node,
        over every parked proposal that resolved: one resolved at the virtual
        instant it parked counts as a 0 ms wait."""
        waits = self.wait_manager.total_waits
        return self.wait_manager.total_wait_ms / waits if waits else 0.0
