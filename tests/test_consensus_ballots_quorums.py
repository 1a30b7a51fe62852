"""Unit tests for ballots, quorum-size arithmetic and the vote-collecting records."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.baselines.epaxos import _LeaderState, _RecoveryState
from repro.baselines.m2paxos import _PendingAccept, _PendingAcquire
from repro.baselines.multipaxos import _SlotState
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.quorums import (
    QuorumSystem,
    classic_quorum_size,
    epaxos_fast_quorum_size,
    fast_quorum_size,
    max_failures,
)
from repro.core.recovery import RecoveryAttempt
from repro.runtime.kernel import QuorumTracker


class TestBallots:
    def test_initial_ballot_round_zero(self):
        assert Ballot.initial(3) == Ballot(0, 3)

    def test_ordering_by_round_then_node(self):
        assert Ballot(0, 4) < Ballot(1, 0)
        assert Ballot(2, 1) < Ballot(2, 3)

    def test_next_for_supersedes(self):
        current = Ballot(1, 4)
        successor = current.next_for(0)
        assert successor > current
        assert successor.node_id == 0

    @given(st.integers(0, 100), st.integers(0, 9), st.integers(0, 9))
    def test_next_for_always_greater(self, round_, node_a, node_b):
        ballot = Ballot(round_, node_a)
        assert ballot.next_for(node_b) > ballot


class TestQuorumSizes:
    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 3), (5, 3), (6, 4), (7, 4), (9, 5)])
    def test_classic_quorum_is_majority(self, n, expected):
        assert classic_quorum_size(n) == expected

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 3), (5, 4), (6, 5), (7, 6), (8, 6)])
    def test_fast_quorum_is_three_quarters(self, n, expected):
        assert fast_quorum_size(n) == expected

    @pytest.mark.parametrize("n,expected", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_max_failures_minority(self, n, expected):
        assert max_failures(n) == expected

    def test_paper_deployment_sizes(self):
        """For the 5-node evaluation: CQ=3, FQ=4, EPaxos fast quorum=3."""
        quorums = QuorumSystem.for_cluster(5)
        assert quorums.classic == 3
        assert quorums.fast == 4
        assert quorums.f == 2
        assert epaxos_fast_quorum_size(5) == 3

    def test_caesar_needs_one_more_node_than_epaxos_on_five(self):
        assert fast_quorum_size(5) == epaxos_fast_quorum_size(5) + 1

    def test_cluster_too_small_rejected(self):
        with pytest.raises(ValueError):
            QuorumSystem.for_cluster(2)

    def test_quorum_predicates(self):
        """Vote collection meets a quorum at exactly the system's sizes."""
        quorums = QuorumSystem.for_cluster(5)
        for threshold in (quorums.classic, quorums.fast):
            tracker = QuorumTracker(threshold)
            votes = [tracker.vote(src) for src in range(threshold)]
            assert votes == [False] * (threshold - 1) + [True]
        assert (quorums.classic, quorums.fast) == (3, 4)

    def test_recovery_majority_is_half_classic_plus_one(self):
        assert QuorumSystem.for_cluster(5).recovery_majority == 2
        assert QuorumSystem.for_cluster(7).recovery_majority == 3

    @given(st.integers(3, 101))
    def test_classic_quorums_intersect(self, n):
        assert 2 * classic_quorum_size(n) > n

    @given(st.integers(3, 101))
    def test_fast_quorum_intersection_property(self, n):
        """Two fast quorums and one classic quorum always intersect (Section III).

        |FQ1 ∩ FQ2 ∩ CQ| >= 2*FQ + CQ - 2*N > 0 is the worst-case bound.
        """
        fq = fast_quorum_size(n)
        cq = classic_quorum_size(n)
        assert 2 * fq + cq - 2 * n >= 1

    @given(st.integers(3, 101))
    def test_fast_quorum_classic_overlap_majority(self, n):
        """A fast quorum overlaps any classic quorum in at least floor(CQ/2)+1 nodes."""
        fq = fast_quorum_size(n)
        cq = classic_quorum_size(n)
        worst_overlap = fq + cq - n
        assert worst_overlap >= cq // 2 + 1


COMMAND = Command(command_id=(1, 0), key="k", operation="put", value="v", origin=0)

#: Every vote-collecting state record: its class, the fields it is built with
#: besides its trackers, and each tracker field.
STATE_RECORDS = [
    (_PendingAccept, {"key": "k", "index": 0, "command": COMMAND, "epoch": 1}, ("acks",)),
    (_PendingAcquire, {"key": "k", "epoch": 1}, ("grants", "refusals")),
    (_LeaderState, {"instance_id": (0, 1), "command": COMMAND, "phase": "preaccept", "seq": 1,
                    "deps": (), "original_seq": 1, "original_deps": (),
                    "ballot": Ballot.initial(0)}, ("votes",)),
    (_RecoveryState, {"instance_id": (0, 1), "ballot": Ballot(1, 2)}, ("votes",)),
    (_SlotState, {"slot": 0, "command": COMMAND, "ballot": Ballot.initial(0)}, ("votes",)),
    (RecoveryAttempt, {"command": COMMAND, "ballot": Ballot(1, 2)}, ("votes",)),
]


@pytest.mark.parametrize("record, fields, trackers, tracker", [
    pytest.param(record, fields, trackers, tracker, id=f"{record.__name__}.{tracker}")
    for record, fields, trackers in STATE_RECORDS for tracker in trackers])
def test_a_state_record_built_without_its_tracker_is_refused(record, fields, trackers,
                                                             tracker):
    """A tracker has no default: a construction site that forgets one fails
    at once, instead of getting a tracker that never reaches quorum and
    stalling the command it was for."""
    given = {name: QuorumTracker(3, 1) for name in trackers}
    assert getattr(record(**fields, **given), tracker) is given[tracker]
    del given[tracker]
    with pytest.raises(TypeError, match=f"'{tracker}'"):
        record(**fields, **given)
