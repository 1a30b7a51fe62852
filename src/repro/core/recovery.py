"""CAESAR's recovery phase (Section V-E, Figure 5).

When the failure detector of a node suspects the leader of a command whose
decision has not yet reached this node as STABLE, the node attempts to become
the command's new leader.  It runs a Paxos-like prepare: it picks a ballot
higher than any it has seen for that command, collects the per-command state
of a classic quorum, keeps only the tuples reported for the highest ballot
(``RecoverySet``) and resumes the decision from the most advanced status it
finds — possibly reconstructing the predecessor *whitelist* of a command that
may already have been decided on the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.core.history import CommandStatus
from repro.core.messages import Recovery, RecoveryReply
from repro.runtime.kernel import QuorumTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.caesar import CaesarReplica

#: Grace period between suspecting a node and starting recovery of its pending
#: commands, staggered per node to avoid dueling recoveries.
RECOVERY_DELAY_MS = 50.0


@dataclass
class RecoveryAttempt:
    """State kept by the recovering node while gathering RECOVERYR replies."""

    command: Command
    ballot: Ballot
    votes: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    dispatched: bool = False


class RecoveryManager:
    """Drives per-command recovery for one replica."""

    def __init__(self, replica: "CaesarReplica") -> None:
        self.replica = replica
        self._attempts: Dict[CommandId, RecoveryAttempt] = {}
        self._suspected: Set[int] = set()

    # ------------------------------------------------------------ triggering

    def on_suspect(self, peer: int) -> None:
        """Failure-detector callback: schedule recovery of the peer's commands."""
        if not self.replica.config.recovery_enabled:
            return
        self._suspected.add(peer)
        delay = self._stagger_delay()
        self.replica.set_timer(delay, self._recover_commands_of, peer)

    def _stagger_delay(self) -> float:
        """Delay recovery by this node's rank among live nodes to avoid duels."""
        alive_lower = sum(1 for node_id in self.replica.network.node_ids
                          if node_id < self.replica.node_id and node_id not in self._suspected)
        return RECOVERY_DELAY_MS * (1 + alive_lower)

    def _recover_commands_of(self, peer: int) -> None:
        """Start recovery for every non-stable command currently led by ``peer``."""
        pending: List[Command] = []
        for entry in list(self.replica.history.entries()):
            if entry.status is CommandStatus.STABLE:
                continue
            leader = self.replica.ballots.get(entry.command_id, entry.ballot).node_id
            if leader == peer:
                pending.append(entry.command)
        for command in pending:
            self.start_recovery(command)

    # --------------------------------------------------------------- prepare

    def start_recovery(self, command: Command) -> None:
        """RECOVERYPHASE (Figure 5, lines 1-4): prepare with a higher ballot."""
        command_id = command.command_id
        entry = self.replica.history.get(command_id)
        if entry is not None and entry.status is CommandStatus.STABLE:
            return
        current = self.replica.ballots.get(command_id, Ballot.initial(command.origin))
        ballot = current.next_for(self.replica.node_id)
        self.replica.ballots[command_id] = ballot
        self._attempts[command_id] = RecoveryAttempt(
            command=command, ballot=ballot,
            votes=QuorumTracker(self.replica.quorums.classic))
        self.replica.stats.recoveries_started += 1
        self.replica.broadcast(Recovery(command=command, ballot=ballot))
        # Cast the local vote explicitly: the ballot register was bumped above,
        # so the self-delivered broadcast fails the acceptor's ``ballot <=
        # current`` freshness check and would never be answered.  Without the
        # self vote a classic quorum is unreachable whenever only
        # ``classic - 1`` peers are live (e.g. 3 replicas, one dead).
        self.on_recovery_reply(self.replica.node_id, self._local_reply(command_id, ballot))

    def _local_reply(self, command_id: CommandId, ballot: Ballot) -> RecoveryReply:
        """This replica's own tuple, shaped like an acceptor's reply."""
        entry = self.replica.history.get(command_id)
        if entry is None:
            return RecoveryReply(command_id=command_id, ballot=ballot, known=False)
        return RecoveryReply(command_id=command_id, ballot=ballot, known=True,
                             entry_ballot=entry.ballot, timestamp=entry.timestamp,
                             predecessors=entry.predecessors,
                             status=entry.status.value, forced=entry.forced)

    def on_recovery_message(self, src: int, message: Recovery) -> None:
        """Acceptor side (Figure 5, lines 28-33): answer with the local tuple."""
        command_id = message.command.command_id
        current = self.replica.ballots.get(command_id)
        if current is not None and message.ballot <= current:
            return
        self.replica.ballots[command_id] = message.ballot
        self.replica.send(src, self._local_reply(command_id, message.ballot))

    # ------------------------------------------------------------ dispatching

    def on_recovery_reply(self, src: int, message: RecoveryReply) -> None:
        """Collect RECOVERYR replies and dispatch once a classic quorum answered."""
        attempt = self._attempts.get(message.command_id)
        if attempt is None or attempt.dispatched or message.ballot != attempt.ballot:
            return
        if not attempt.votes.vote(src, message):
            return
        attempt.dispatched = True
        self._dispatch(attempt)

    def _dispatch(self, attempt: RecoveryAttempt) -> None:
        """Figure 5, lines 5-27: resume from the most advanced surviving state."""
        replica = self.replica
        command = attempt.command
        known = [reply for reply in attempt.votes.payloads() if reply.known]
        if not known:
            timestamp = replica.timestamps.next_timestamp()
            replica._start_fast_proposal(command, attempt.ballot, timestamp, whitelist=None,
                                         recovered=True)
            replica.stats.recoveries_completed += 1
            return

        max_ballot = max(reply.entry_ballot for reply in known)
        recovery_set = [reply for reply in known if reply.entry_ballot == max_ballot]

        stable = [r for r in recovery_set if r.status == CommandStatus.STABLE.value]
        accepted = [r for r in recovery_set if r.status == CommandStatus.ACCEPTED.value]
        rejected = [r for r in recovery_set if r.status == CommandStatus.REJECTED.value]
        slow_pending = [r for r in recovery_set if r.status == CommandStatus.SLOW_PENDING.value]
        fast_pending = [r for r in recovery_set if r.status == CommandStatus.FAST_PENDING.value]

        if stable:
            chosen = stable[0]
            self._resume_stable(attempt, chosen)
        elif accepted:
            chosen = accepted[0]
            self._resume_retry(attempt, chosen)
        elif rejected:
            timestamp = replica.timestamps.next_timestamp()
            replica._start_fast_proposal(command, attempt.ballot, timestamp, whitelist=None,
                                         recovered=True)
        elif slow_pending:
            chosen = slow_pending[0]
            self._resume_slow_proposal(attempt, chosen)
        elif fast_pending:
            self._resume_fast_pending(attempt, fast_pending)
        else:  # pragma: no cover - statuses above are exhaustive
            timestamp = replica.timestamps.next_timestamp()
            replica._start_fast_proposal(command, attempt.ballot, timestamp, whitelist=None,
                                         recovered=True)
        replica.stats.recoveries_completed += 1

    def _resume_stable(self, attempt: RecoveryAttempt, reply: RecoveryReply) -> None:
        """A quorum member already knows the decision: re-broadcast STABLE."""
        from repro.core.caesar import PHASE_RETRY, LeaderState  # local import avoids a cycle

        replica = self.replica
        state = LeaderState(attempt.command, attempt.ballot, PHASE_RETRY, reply.timestamp, None,
                            None, replica.sim.now, set(reply.predecessors), recovered=True)
        replica.leader_states[attempt.command.command_id] = state
        replica._start_stable(state)

    def _resume_retry(self, attempt: RecoveryAttempt, reply: RecoveryReply) -> None:
        """An accepted tuple survives: finish through a retry phase."""
        from repro.core.caesar import PHASE_FAST, LeaderState

        replica = self.replica
        state = LeaderState(attempt.command, attempt.ballot, PHASE_FAST, reply.timestamp, None,
                            None, replica.sim.now, set(reply.predecessors), recovered=True)
        replica.leader_states[attempt.command.command_id] = state
        replica._start_retry(state)

    def _resume_slow_proposal(self, attempt: RecoveryAttempt, reply: RecoveryReply) -> None:
        """A slow-pending tuple survives: re-run the slow proposal phase."""
        from repro.core.caesar import PHASE_FAST, LeaderState

        replica = self.replica
        state = LeaderState(attempt.command, attempt.ballot, PHASE_FAST, reply.timestamp, None,
                            None, replica.sim.now, set(reply.predecessors), recovered=True)
        replica.leader_states[attempt.command.command_id] = state
        replica._start_slow_proposal(state)

    def _resume_fast_pending(self, attempt: RecoveryAttempt,
                             fast_pending: List[RecoveryReply]) -> None:
        """Only fast-pending tuples survive: the command may have decided fast.

        The recovering leader re-proposes with the *same* timestamp and, when
        enough of the quorum reported the command, forces a whitelist of the
        predecessors that every possible fast quorum must have agreed on
        (Figure 5, lines 16-25).
        """
        replica = self.replica
        timestamp = fast_pending[0].timestamp
        union_pred: Set[CommandId] = set()
        for reply in fast_pending:
            union_pred |= set(reply.predecessors)
        union_pred.discard(attempt.command.command_id)

        forced = [r for r in fast_pending if r.forced]
        majority = replica.quorums.recovery_majority
        whitelist: Optional[FrozenSet[CommandId]]
        if forced:
            whitelist = frozenset(union_pred)
        elif len(fast_pending) >= majority:
            whitelist = frozenset(
                pred for pred in union_pred
                if sum(1 for r in fast_pending if pred not in r.predecessors) < majority
            )
        else:
            whitelist = None
        replica._start_fast_proposal(attempt.command, attempt.ballot, timestamp,
                                     whitelist=whitelist, recovered=True)
