"""Unit tests for the recovery dispatch rules and whitelist reconstruction.

These drive :class:`repro.core.recovery.RecoveryManager` directly with
hand-built RECOVERYR replies, covering the five dispatch cases of Figure 5
and the whitelist computation used when a command may already have been
decided on the fast path.
"""

from __future__ import annotations

from repro.consensus.ballots import Ballot
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandStatus
from repro.core.messages import Recovery, RecoveryReply, Stable
from repro.core.recovery import RecoveryAttempt
from repro.runtime.kernel import QuorumTracker
from tests.conftest import build_caesar_cluster, make_command


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


def make_reply(command_id, ballot, status, timestamp, predecessors=(), forced=False,
               entry_ballot=None):
    return RecoveryReply(command_id=command_id, ballot=ballot, known=True,
                         entry_ballot=entry_ballot or Ballot.initial(0),
                         timestamp=timestamp, predecessors=frozenset(predecessors),
                         status=status.value, forced=forced)


class RecoveryHarness:
    """A replica whose recovery manager is driven with synthetic replies."""

    def __init__(self):
        _, _, self.replicas = build_caesar_cluster(recovery=False, seed=2)
        self.replica = self.replicas[1]
        self.manager = self.replica.recovery
        self.command = make_command(0, 0, key="x", origin=0)
        self.ballot = Ballot(1, self.replica.node_id)
        self.attempt = RecoveryAttempt(
            command=self.command, ballot=self.ballot,
            votes=QuorumTracker(self.replica.quorums.classic))
        self.manager._attempts[self.command.command_id] = self.attempt
        self.replica.ballots[self.command.command_id] = self.ballot

    def dispatch(self, replies):
        for src, reply in enumerate(replies, start=2):
            self.attempt.votes.vote(src, reply)
        self.manager._dispatch(self.attempt)
        return self.replica.leader_states.get(self.command.command_id)


class TestDispatchCases:
    def test_stable_reply_rebroadcasts_stable(self):
        harness = RecoveryHarness()
        reply = make_reply(harness.command.command_id, harness.ballot, CommandStatus.STABLE,
                           ts(5), predecessors={(9, 9)})
        broadcasts = []
        harness.replica.broadcast = broadcasts.append
        state = harness.dispatch([reply])
        # A decided command leaves no leader state behind: what the replica
        # did is the STABLE it sent, at the recovery ballot.
        assert state is None
        [stable] = broadcasts
        assert isinstance(stable, Stable)
        assert stable.ballot == harness.ballot
        assert stable.timestamp == ts(5)
        assert stable.predecessors == {(9, 9)}

    def test_accepted_reply_resumes_via_retry(self):
        harness = RecoveryHarness()
        reply = make_reply(harness.command.command_id, harness.ballot, CommandStatus.ACCEPTED,
                           ts(7), predecessors={(8, 8)})
        state = harness.dispatch([reply])
        assert state is not None
        assert state.phase == "retry"
        assert state.timestamp == ts(7)

    def test_rejected_reply_restarts_fast_proposal_with_fresh_timestamp(self):
        harness = RecoveryHarness()
        reply = make_reply(harness.command.command_id, harness.ballot, CommandStatus.REJECTED,
                           ts(3))
        state = harness.dispatch([reply])
        assert state is not None
        assert state.phase == "fast_proposal"
        assert state.whitelist is None
        assert state.timestamp.node_id == harness.replica.node_id

    def test_slow_pending_reply_resumes_slow_proposal(self):
        harness = RecoveryHarness()
        reply = make_reply(harness.command.command_id, harness.ballot,
                           CommandStatus.SLOW_PENDING, ts(4), predecessors={(7, 7)})
        state = harness.dispatch([reply])
        assert state is not None
        assert state.phase == "slow_proposal"

    def test_all_unknown_restarts_from_scratch(self):
        harness = RecoveryHarness()
        unknown = RecoveryReply(command_id=harness.command.command_id, ballot=harness.ballot,
                                known=False)
        state = harness.dispatch([unknown, unknown])
        assert state is not None
        assert state.phase == "fast_proposal"
        assert state.whitelist is None

    def test_higher_status_wins_over_fast_pending(self):
        harness = RecoveryHarness()
        pending = make_reply(harness.command.command_id, harness.ballot,
                             CommandStatus.FAST_PENDING, ts(5))
        accepted = make_reply(harness.command.command_id, harness.ballot,
                              CommandStatus.ACCEPTED, ts(6))
        state = harness.dispatch([pending, accepted])
        assert state.phase == "retry"


class TestWhitelistReconstruction:
    def test_majority_agreement_forces_whitelist(self):
        """Predecessors reported by enough of the quorum are forced (Figure 5, line 22)."""
        harness = RecoveryHarness()
        cid = harness.command.command_id
        common = (9, 9)
        rare = (8, 8)
        replies = [
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors={common, rare}),
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors={common}),
        ]
        state = harness.dispatch(replies)
        assert state.phase == "fast_proposal"
        assert state.timestamp == ts(5)
        # recovery_majority for CQ=3 is 2: 'common' is missing from 0 replies,
        # 'rare' is missing from 1 < 2, so both survive the filter... unless a
        # majority of tuples lack it.  With these two replies both are kept.
        assert common in state.whitelist
        assert rare in state.whitelist

    def test_predecessor_missing_from_majority_excluded(self):
        harness = RecoveryHarness()
        cid = harness.command.command_id
        shaky = (8, 8)
        replies = [
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors={shaky}),
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors=set()),
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors=set()),
        ]
        state = harness.dispatch(replies)
        # 'shaky' is absent from 2 >= floor(CQ/2)+1 = 2 tuples: it cannot have
        # been part of a fast decision, so it is not forced.
        assert shaky not in state.whitelist

    def test_forced_reply_propagates_whitelist(self):
        harness = RecoveryHarness()
        cid = harness.command.command_id
        forced_pred = (7, 7)
        replies = [
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors={forced_pred}, forced=True),
        ]
        state = harness.dispatch(replies)
        assert state.whitelist == frozenset({forced_pred})

    def test_too_few_fast_pending_tuples_yield_no_whitelist(self):
        harness = RecoveryHarness()
        cid = harness.command.command_id
        replies = [
            make_reply(cid, harness.ballot, CommandStatus.FAST_PENDING, ts(5),
                       predecessors={(9, 9)}),
        ]
        state = harness.dispatch(replies)
        # A single tuple (< floor(CQ/2)+1 = 2) cannot witness a fast decision.
        assert state.whitelist is None

    def test_stale_ballot_recovery_reply_ignored(self):
        harness = RecoveryHarness()
        cid = harness.command.command_id
        stale = RecoveryReply(command_id=cid, ballot=Ballot(0, 3), known=True,
                              entry_ballot=Ballot.initial(0), timestamp=ts(5),
                              predecessors=frozenset(), status="fast-pending")
        harness.manager.on_recovery_reply(2, stale)
        assert not harness.attempt.votes.payloads()


class TestRecoveryMessageSide:
    def test_acceptor_answers_higher_ballot_with_local_tuple(self):
        harness = RecoveryHarness()
        acceptor = harness.replicas[2]
        command = harness.command
        acceptor.history.update(command, ts(4), {(6, 6)}, CommandStatus.FAST_PENDING,
                                Ballot.initial(0))
        sent = []
        acceptor.send = lambda dst, msg: sent.append((dst, msg))
        acceptor.recovery.on_recovery_message(1, Recovery(command=command,
                                                          ballot=Ballot(3, 1)))
        assert len(sent) == 1
        reply = sent[0][1]
        assert reply.known
        assert reply.timestamp == ts(4)
        assert reply.predecessors == frozenset({(6, 6)})
        assert acceptor.ballots[command.command_id] == Ballot(3, 1)

    def test_acceptor_answers_nop_when_command_unknown(self):
        harness = RecoveryHarness()
        acceptor = harness.replicas[3]
        sent = []
        acceptor.send = lambda dst, msg: sent.append((dst, msg))
        acceptor.recovery.on_recovery_message(1, Recovery(command=harness.command,
                                                          ballot=Ballot(3, 1)))
        assert len(sent) == 1
        assert not sent[0][1].known
