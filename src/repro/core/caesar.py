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
:mod:`repro.core.recovery`.  Dispatch, quorum tracking, ballot bookkeeping
and the failure detector come from the runtime kernel
(:mod:`repro.runtime.kernel`) — this module contains protocol logic only.

An acceptor handler looks its command up once and hands the entry it found
(or ``None``) down to COMPUTEPREDECESSORS, UPDATE, WAIT and delivery; the wait
manager hears of a write only while something is parked.  A fast proposal
that passes WAIT at once is answered in the handler; ``_answer_proposal`` runs
for every other outcome: a NACK, a slow proposal, a parked one once it resolves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import LogicalTimestamp, TimestampGenerator
from repro.core.config import CaesarConfig
from repro.core.delivery import DeliveryManager
from repro.core.history import CommandHistory, CommandStatus
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
from repro.core.predecessors import WaitManager, compute_predecessor_mask
from repro.core.recovery import RecoveryManager
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.costs import CostModel
from repro.runtime.kernel import BallotRegister, ProtocolKernel, QuorumTracker, handles

#: Leader-side phases a command can be in.
PHASE_FAST = "fast_proposal"
PHASE_SLOW = "slow_proposal"
PHASE_RETRY = "retry"
PHASE_DONE = "done"

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
                 "predecessors", "timer", "started_at", "phase_started_at",
                 "went_slow", "recovered")

    def __init__(self, command: Command, ballot: Ballot, phase: str,
                 timestamp: LogicalTimestamp, whitelist: Optional[FrozenSet[CommandId]],
                 votes: Optional[QuorumTracker], now: float,
                 predecessors: Optional[Set[CommandId]] = None,
                 recovered: bool = False) -> None:
        self.command = command
        self.ballot = ballot
        self.phase = phase
        self.timestamp = timestamp
        self.whitelist = whitelist
        self.votes = votes
        self.predecessors: Set[CommandId] = set() if predecessors is None else predecessors
        #: the pending proposal timeout: the clock's cancellable handle.
        self.timer: Optional[object] = None
        self.started_at = now
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
        config: protocol configuration.
        cost_model: CPU cost model.
    """

    protocol_name = "caesar"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, config: Optional[CaesarConfig] = None,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.config = config or CaesarConfig()
        self.timestamps = TimestampGenerator(node_id)
        self.history = CommandHistory()
        self.wait_manager = WaitManager(self.history, lambda: self.sim.now,
                                        enabled=self.config.wait_condition_enabled)
        self.delivery = DeliveryManager(self.history, self._execute_stable)
        self.leader_states: Dict[CommandId, LeaderState] = {}
        self.ballots = BallotRegister()
        self.wait_time_samples: List[float] = []
        self.recovery = RecoveryManager(self)
        if self.config.recovery_enabled:
            self.use_failure_detector(self.config.heartbeat_every_ms,
                                      self.config.suspect_after_ms,
                                      self.recovery.on_suspect)

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Become the leader of ``command`` and start its fast proposal phase."""
        timestamp = self.timestamps.next_timestamp()
        ballot = Ballot.initial(self.node_id)
        self.ballots.setdefault(command.command_id, ballot)
        self._start_fast_proposal(command, ballot, timestamp, whitelist=None)

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
                            self.sim.now, recovered=recovered)
        self.leader_states[command_id] = state
        state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
                                     self._on_fast_proposal_timeout, command_id)
        proposal = FastPropose(command=command, ballot=ballot, timestamp=timestamp,
                               whitelist=whitelist)
        self.broadcast(proposal)
        self.retransmit.track(command_id, proposal, tracker=votes)

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
        self.retransmit.track(state.command.command_id, proposal, tracker=state.votes)

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
        self.retransmit.resolve(command_id)
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
        if state.votes.count < self.quorums.classic:
            # Not even a classic quorum yet: keep waiting (the cluster may have
            # more than f slow/crashed nodes right now).
            state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
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
        if not self.ballots.allows(command_id, ballot):
            return
        history = self.history
        existing = history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            # Already decided (e.g. a recovery finished first); nothing to do.
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not ballot > existing.ballot):
            # A retransmitted proposal at the same ballot must not downgrade
            # the entry a later retry already promoted to ACCEPTED.
            return
        self.ballots[command_id] = ballot
        self.timestamps.observe(timestamp)
        whitelist_mask = (None if message.whitelist is None
                          else history.mask_from_ids(message.whitelist, command.key))
        predecessors = compute_predecessor_mask(history, command, timestamp,
                                                whitelist_mask, existing)
        if predecessors:  # CostModel.dependency_cost of a non-empty set
            self.consume_cpu(self.cost_model.per_dependency_ms * predecessors.bit_count())
        entry = history.update(command, timestamp, predecessors, CommandStatus.FAST_PENDING,
                               ballot, forced=message.whitelist is not None, entry=existing)
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
                command_id=command_id, ballot=ballot, timestamp=timestamp,
                predecessors=history.ids_from_mask(predecessors, command.key), ok=True))
        elif verdict is not None:
            # The notify cascade may have answered an older copy of this
            # proposal (a NACK rewrites the entry REJECTED): _answer_proposal
            # writes the entry back before answering.
            self._answer_proposal(verdict, 0.0, *proposal)

    @handles(SlowPropose)
    def _on_slow_propose(self, src: int, message: SlowPropose) -> None:
        """Acceptor side of the slow proposal phase (Figure 4, lines P31-P39)."""
        command = message.command
        command_id = command.command_id
        if not self.ballots.allows(command_id, message.ballot):
            return
        history = self.history
        existing = history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        if (existing is not None and existing.status is CommandStatus.ACCEPTED
                and not message.ballot > existing.ballot):
            # See _on_fast_propose: never downgrade ACCEPTED on a resend.
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        predecessors = compute_predecessor_mask(history, command, message.timestamp,
                                                entry=existing)
        predecessors |= history.mask_from_ids(message.predecessors, command.key)
        self_index = existing.index if existing is not None else history.index_of(command_id)
        if self_index is not None:
            predecessors &= ~(1 << self_index)
        self.consume_cpu(self.cost_model.dependency_cost(predecessors.bit_count()))
        entry = history.update(command, message.timestamp, predecessors,
                               CommandStatus.SLOW_PENDING, message.ballot, entry=existing)
        if self.wait_manager.parked:
            self.wait_manager.notify_entry(entry)
        proposal = (src, command, message.ballot, message.timestamp, predecessors, False)
        verdict = self.wait_manager.evaluate(command, message.timestamp, self._answer_proposal,
                                             entry, proposal)
        if verdict is not None:
            self._answer_proposal(verdict, 0.0, *proposal)

    def _answer_proposal(self, ok: bool, waited_ms: float, leader: int, command: Command,
                         ballot: Ballot, timestamp: LogicalTimestamp, predecessors: int,
                         fast: bool) -> None:
        """Send the OK/NACK answer for a parked, rejected or slow proposal.

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
        history = self.history
        entry = history.get(command_id)
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
                         and entry.timestamp == timestamp and entry.pred_mask == reply_pred
                         and entry.status is status and entry.ballot == ballot)
            if not unchanged:
                entry = history.update(command, timestamp, reply_pred, status, ballot,
                                       forced=entry is not None and entry.forced, entry=entry)
                if self.wait_manager.parked:
                    self.wait_manager.notify_entry(entry)
        else:
            self.stats.nacks_sent += 1
            reply_ts = self.timestamps.suggestion_greater_than(timestamp)
            reply_pred = compute_predecessor_mask(history, command, reply_ts, entry=entry)
            entry = history.update(command, reply_ts, reply_pred,
                                   CommandStatus.REJECTED, ballot, entry=entry)
            if self.wait_manager.parked:
                self.wait_manager.notify_entry(entry)
        reply_cls = FastProposeReply if fast else SlowProposeReply
        reply_ids = history.ids_from_mask(reply_pred, command.key)
        self.send(leader, reply_cls(command_id=command_id, ballot=ballot, timestamp=reply_ts,
                                    predecessors=reply_ids, ok=ok))

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
        if not self.ballots.allows(command_id, message.ballot):
            return
        history = self.history
        existing = history.get(command_id)
        if existing is not None and existing.status is CommandStatus.STABLE:
            return
        self.ballots[command_id] = message.ballot
        self.timestamps.observe(message.timestamp)
        entry = history.update(command, message.timestamp,
                               history.mask_from_ids(message.predecessors, command.key),
                               CommandStatus.ACCEPTED, message.ballot, entry=existing)
        extra = compute_predecessor_mask(history, command, message.timestamp, entry=entry)
        self.consume_cpu(self.cost_model.dependency_cost(extra.bit_count()))
        if self.wait_manager.parked:
            self.wait_manager.drop_command(command_id, command.key)
            self.wait_manager.notify_entry(entry)
        self.send(src, RetryReply(command_id=command_id, ballot=message.ballot,
                                  timestamp=message.timestamp,
                                  predecessors=history.ids_from_mask(extra, command.key)))

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
        ballot = message.ballot
        if self.ballots.get(command_id) is not ballot:
            self.ballots.observe(command_id, ballot)
        self.timestamps.observe(message.timestamp)
        predecessors = 0
        if message.predecessors:
            predecessors = history.mask_from_ids(message.predecessors, command.key)
            # With no entry yet, the translation may just have interned the id.
            self_index = existing.index if existing is not None else history.index_of(command_id)
            if self_index is not None:
                predecessors &= ~(1 << self_index)
        entry = history.update(command, message.timestamp, predecessors,
                               CommandStatus.STABLE, ballot, entry=existing)
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

    @handles(Recovery)
    def _on_recovery(self, src: int, message: Recovery) -> None:
        """Acceptor side of the recovery prepare (delegated to the manager)."""
        self.recovery.on_recovery_message(src, message)

    @handles(RecoveryReply)
    def _on_recovery_reply(self, src: int, message: RecoveryReply) -> None:
        """Recovering-leader side of recovery replies (delegated to the manager)."""
        self.recovery.on_recovery_reply(src, message)

    def _execute_stable(self, command: Command) -> None:
        """Callback from the delivery manager: apply the command locally."""
        decision = self.execute_command(command)
        if decision is not None and decision.decided_at is not None:
            phase_times = decision.phase_times
            phase_times["deliver"] = (phase_times.get("deliver", 0.0)
                                      + (self.sim.now - decision.decided_at))
        if self.wait_manager.parked:  # BREAKLOOP may have edited the entry
            self.wait_manager.notify_entry(self.history.get(command.command_id))

    # ------------------------------------------------------------- life cycle

    def on_restart(self) -> None:
        """Re-arm what the crash silently killed, the kernel's timers and each
        fast proposal's timeout (one that fired while down was skipped)."""
        super().on_restart()
        for command_id, state in self.leader_states.items():
            if state.phase == PHASE_FAST:
                if state.timer is not None:
                    state.timer.cancel()
                state.timer = self.set_timer(self.config.fast_proposal_timeout_ms,
                                             self._on_fast_proposal_timeout, command_id)

    # ------------------------------------------------------------- telemetry

    def average_wait_ms(self) -> float:
        """Mean time proposals spent parked in the wait condition on this node."""
        if not self.wait_time_samples:
            return 0.0
        return sum(self.wait_time_samples) / len(self.wait_time_samples)
