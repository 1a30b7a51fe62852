"""Differential tests: CAESAR's acceptor handlers, then its leader half, vs the spec.

A :class:`~repro.core.caesar.CaesarReplica` and ``tests/spec_caesar.py``'s
:class:`SpecCaesarReplica` (Figures 3, 4 and 5 of the paper, transcribed over
plain rows and scans) each sit alone on an idle simulator and are fed the
same messages at the same virtual times.  After every message both must have
sent the same messages (type, destination, every field; within one handler
call as a multiset) and hold the same history rows (timestamp, predecessor
ids, status, ballot, forced), delivered set, ballot register, logical clock,
execution order, the wait counters and ``stats``.  Everything is
compared as command ids; the spec's docstring lists where the two may
legitimately differ and how these comparisons allow for it.

The schedules are seeded random streams over a dozen commands on two keys —
duplicated and retransmitted proposals at the same ballot, ``Stable`` before
any proposal, predecessor sets that name the command itself or commands
never seen, retries overtaking parked proposals, recoveries at a higher
ballot with and without a whitelist, reads among writes, the wait condition
off — plus each of those written out as a scenario, so that a handler that
forgets one case fails a test that says which.

The leader probe does the same for the leader's side: replica 0 submits
commands, starts recoveries and is fed seeded reply schedules.
``TestSpecEndToEnd`` registers the spec as a protocol and runs it as a
cluster next to the product.  The rows of ``tests/mutants.py`` put known
mistakes into the product and require these differentials to notice.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.caesar import PHASE_FAST, PHASE_RETRY, PHASE_SLOW, CaesarReplica
from repro.core.history import CommandStatus
from repro.core.invariants import check_promises
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
from repro.harness.cluster import build_cluster
from repro.harness.experiment import (ExperimentConfig, attach_clients, count_decisions,
                                      run_experiment)
from repro.harness.protocols import PROTOCOLS, register_protocol
from repro.kvstore.store import KeyValueStore
from repro.metrics.collector import MetricsCollector
from repro.sim.failures import ScheduledCrash
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from tests.conftest import ignore, ts, uniform_topology
from tests.spec_caesar import SpecCaesarReplica, comparable_predecessors
from tests.test_sim_engine_differential import pending_times

REPLICAS = 5
KEYS = ("x", "y")


class Probe:
    """One replica alone on an idle simulator, with what it sends recorded."""

    def __init__(self, replica_class, wait_enabled: bool = True) -> None:
        self.sim = Simulator(seed=1)
        network = Network(self.sim, uniform_topology(REPLICAS, rtt_ms=10.0), NetworkConfig())
        self.replica: CaesarReplica = replica_class(
            0, self.sim, network, QuorumSystem.for_cluster(REPLICAS), KeyValueStore(),
            wait_condition=wait_enabled)
        self.sent: List[Tuple[object, object]] = []
        self.replica.send = lambda dst, message: self.sent.append((dst, message))
        self.replica.broadcast = (
            lambda message, include_self=True: self.sent.append(("all", message)))

    def feed(self, src: int, message: object, advance_ms: float = 0.0) -> None:
        if advance_ms:
            self.sim.run(until=self.sim.now + advance_ms)
        self.replica.handle_message(src, message)

    def delivered(self) -> list:
        """Ids in the order this replica delivered them: its execution order."""
        return [command.command_id for command in self.replica.execution_log]

    def rows(self) -> list:
        history, delivered = self.replica.history, self.replica.delivery.is_delivered
        return sorted((entry.command_id, entry.command, entry.timestamp,
                       comparable_predecessors(history, entry, delivered(entry.command_id)),
                       entry.status, entry.ballot, entry.forced)
                      for entry in history.entries())

    def observed(self) -> tuple:
        """Everything but the sends a peer, a client or a figure could tell the two
        replicas apart by (the sends are compared per call, see :func:`agree`)."""
        replica = self.replica
        delivery = replica.delivery
        known = [entry.command_id for entry in replica.history.entries()] + NAMEABLE
        return (self.rows(), sorted(filter(delivery.is_delivered, set(known))),
                self.promises(known + list(ORIGINS)), replica.timestamps._counter,
                delivery.pending_count(), delivery.missing_predecessors(),
                replica.wait_manager.parked, replica.wait_manager.total_waits,
                replica.wait_manager.total_wait_ms,
                dataclasses.asdict(replica.stats), replica.commands_executed,
                replica.cpu_busy_ms, replica.cpu_backlog_ms, self.delivered())

    def promises(self, ids) -> dict:
        """Each id's promise, an absent one read as its command's round-0 ballot,
        collected ids left out (difference 6 of the spec's docstring)."""
        replica = self.replica
        history, delivered = replica.history, replica.delivery.is_delivered
        view = {}
        for command_id in set(ids):
            if history.get(command_id) is None and delivered(command_id):
                continue
            promised = replica.promised(command_id)
            view[command_id] = (Ballot.initial(ORIGINS.get(command_id, command_id[0]))
                                if promised is None else promised)
        return view

    def answers(self, command: Command) -> list:
        """The proposal answers sent for ``command``, oldest first."""
        return [message for _, message in self.sent
                if isinstance(message, (FastProposeReply, SlowProposeReply))
                and message.command_id == command.command_id]


def waits(probe: Probe) -> tuple:
    """How many parked proposals resolved on ``probe``, and their total wait in ms."""
    return probe.replica.wait_manager.total_waits, probe.replica.wait_manager.total_wait_ms


def agree(new: Probe, spec: Probe, sent_before: int, label: object) -> None:
    """The sends since ``sent_before`` as a multiset, then everything else."""
    mine, theirs = new.sent[sent_before:], spec.sent[sent_before:]
    assert Counter(mine) == Counter(theirs), ("spec disagrees", label, mine, theirs)
    for position, (mine, theirs) in enumerate(zip(new.observed(), spec.observed())):
        assert mine == theirs, ("spec disagrees", label, position, mine, theirs)


class Pair:
    """The product and the spec, fed in lock step."""

    def __init__(self, wait_enabled: bool = True) -> None:
        self.new = Probe(CaesarReplica, wait_enabled)
        self.spec = Probe(SpecCaesarReplica, wait_enabled)
        self.fed = 0

    def feed(self, src: int, message: object, advance_ms: float = 0.0) -> None:
        before = len(self.new.sent)
        self.new.feed(src, message, advance_ms)
        self.spec.feed(src, message, advance_ms)
        self.fed += 1
        agree(self.new, self.spec, before, (self.fed, message))

    def collect(self, command: Command) -> None:
        """Remove ``command``'s entry on both sides: the history's half of collection
        (the replica's floor and late-message rules: ``tests/test_core_compaction.py``)."""
        self.new.replica.history.remove(command.command_id)
        self.spec.replica.history.remove(command.command_id)
        agree(self.new, self.spec, len(self.new.sent), ("collect", command))

    def settle(self, advance_ms: float) -> None:
        """Let armed timers (the catch-up probe) fire on both sides."""
        before = len(self.new.sent)
        self.new.sim.run(until=self.new.sim.now + advance_ms)
        self.spec.sim.run(until=self.spec.sim.now + advance_ms)
        agree(self.new, self.spec, before, ("settle", advance_ms))


def command(client: int, sequence: int, key: str = "x", operation: str = "put") -> Command:
    return Command(command_id=(client, sequence), key=key, operation=operation,
                   value=f"v{client}.{sequence}", origin=client)


def fast(cmd: Command, timestamp: LogicalTimestamp, ballot: Optional[Ballot] = None,
         whitelist=None) -> FastPropose:
    return FastPropose(command=cmd, ballot=ballot or Ballot.initial(cmd.origin),
                       timestamp=timestamp, whitelist=whitelist)


def stable(cmd: Command, timestamp: LogicalTimestamp, predecessors: Sequence = (),
           ballot: Optional[Ballot] = None) -> Stable:
    return Stable(command=cmd, ballot=ballot or Ballot.initial(cmd.origin),
                  timestamp=timestamp, predecessors=frozenset(predecessors))


def retry(cmd: Command, timestamp: LogicalTimestamp, predecessors: Sequence = (),
          ballot: Optional[Ballot] = None) -> Retry:
    return Retry(command=cmd, ballot=ballot or Ballot.initial(cmd.origin),
                 timestamp=timestamp, predecessors=frozenset(predecessors))


def slow(cmd: Command, timestamp: LogicalTimestamp, predecessors: Sequence = (),
         ballot: Optional[Ballot] = None) -> SlowPropose:
    return SlowPropose(command=cmd, ballot=ballot or Ballot.initial(cmd.origin),
                       timestamp=timestamp, predecessors=frozenset(predecessors))


# ------------------------------------------------------------ random schedules

COMMANDS = [command(client, sequence, key=KEYS[(client + sequence) % 2],
                    operation="get" if (client, sequence) in ((1, 1), (3, 0)) else "put")
            for client in range(4) for sequence in range(3)]
#: Ids a predecessor set or whitelist on a key may name: the key's commands,
#: and two nobody proposes — ``(8 + k, 0)`` and ``(8 + k, 1)`` on ``KEYS[k]``
#: (an id is bound to the first key it is named on, and a replica refuses it
#: on another).
GHOSTS = {key: [(8 + k, n) for n in range(2)] for k, key in enumerate(KEYS)}
NAMEABLE_ON = {key: [cmd.command_id for cmd in COMMANDS if cmd.key == key] + GHOSTS[key]
               for key in KEYS}
NAMEABLE = [command_id for key in KEYS for command_id in NAMEABLE_ON[key]]


def random_schedule(seed: int, length: int = 90) -> list:
    """``(src, message, advance_ms)`` steps, the same for a given seed."""
    rng = random.Random(seed)
    steps: list = []
    for _ in range(length):
        cmd = rng.choice(COMMANDS)
        client, sequence = cmd.command_id
        # Unique per command at a given counter draw: the node id is the
        # client, and the counter's remainder the sequence number.
        timestamp = ts(3 * rng.randint(1, 9) + sequence, client)
        ballot = (Ballot.initial(client) if rng.random() < 0.8
                  else Ballot(rng.randint(0, 2), rng.randrange(REPLICAS)))
        same_key = NAMEABLE_ON[cmd.key]
        named = frozenset(rng.sample(same_key, rng.randint(0, 4)))
        advance = rng.choice((0.0, 0.0, 0.0, 2.5, 40.0))
        src = ballot.node_id
        draw = rng.random()
        if steps and draw < 0.10:
            # A retransmission: the very message again, or an equal copy of it.
            src, message, _ = rng.choice(steps)
            if rng.random() < 0.5:
                message = dataclasses.replace(
                    message, ballot=Ballot(message.ballot.round, message.ballot.node_id))
        elif draw < 0.50:
            whitelist = named if ballot.round > 0 and rng.random() < 0.6 else None
            message = fast(cmd, timestamp, ballot, whitelist)
        elif draw < 0.62:
            message = slow(cmd, timestamp, named, ballot)
        elif draw < 0.74:
            message = retry(cmd, timestamp, named, ballot)
        elif draw < 0.94:
            message = stable(cmd, timestamp, named, ballot)
        else:
            message = Recovery(command=cmd, ballot=ballot)
        steps.append((src, message, advance))
    return steps


class TestRandomSchedules:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_schedule_agrees(self, seed):
        pair = Pair()
        for src, message, advance in random_schedule(seed):
            pair.feed(src, message, advance)
        pair.settle(5000.0)

    @pytest.mark.parametrize("seed", range(100, 120))
    def test_seeded_schedule_agrees_with_the_wait_condition_off(self, seed):
        pair = Pair(wait_enabled=False)
        for src, message, advance in random_schedule(seed):
            pair.feed(src, message, advance)
        pair.settle(5000.0)

    def test_the_schedules_reach_every_case(self):
        """The streams are only worth their seeds if they park, reject, deliver and
        recover.  ``waits`` counts every parked proposal that resolved, 0 ms ones too."""
        kinds, parked, nacks, waits, delivered = set(), 0, 0, 0, 0
        for seed in range(60):
            pair = Pair()
            for src, message, advance in random_schedule(seed):
                pair.feed(src, message, advance)
                parked = max(parked, pair.new.replica.wait_manager.parked)
            kinds.update(type(message) for _, message in pair.new.sent)
            nacks += pair.new.replica.stats.nacks_sent
            waits += pair.new.replica.wait_manager.total_waits
            delivered += len(pair.new.delivered())
        assert kinds >= {FastProposeReply, SlowProposeReply, RetryReply, RecoveryReply}
        assert parked >= 2 and nacks > 50 and waits > 20 and delivered > 100


# ------------------------------------------------------------------- scenarios

A = command(0, 0)
B = command(1, 0)
C = command(2, 0)


class TestScenarios:
    def test_immediate_ok_sends_exactly_one_answer(self):
        pair = Pair()
        pair.feed(0, fast(A, ts(3, 0)))
        assert pair.new.answers(A) == [FastProposeReply(
            command_id=A.command_id, ballot=Ballot.initial(0), timestamp=ts(3, 0),
            predecessors=frozenset(), ok=True)]
        assert pair.new.sent[0][0] == 0
        # A later command on the key lists the earlier one and is answered at once too.
        pair.feed(1, fast(B, ts(5, 1)))
        assert pair.new.answers(B)[0].predecessors == {A.command_id}
        assert len(pair.new.sent) == 2

    def test_duplicated_and_retransmitted_fast_propose_at_the_same_ballot(self):
        pair = Pair()
        message = fast(A, ts(3, 0))
        pair.feed(0, message)
        pair.feed(0, message)
        # An equal ballot that is another object (a decoded retransmission).
        pair.feed(0, fast(A, ts(3, 0), Ballot(0, 0)), advance_ms=1500.0)
        assert len(pair.new.answers(A)) == 3
        assert len(pair.new.rows()) == 1
        # After the retry promoted the entry, a resend must not downgrade it.
        pair.feed(0, retry(A, ts(3, 0)))
        pair.feed(0, message)
        assert len(pair.new.answers(A)) == 3
        assert pair.new.replica.history.get(A.command_id).status is CommandStatus.ACCEPTED

    def test_stable_before_any_proposal(self):
        pair = Pair()
        pair.feed(1, stable(B, ts(5, 1), [A.command_id]))
        assert pair.new.replica.delivery.pending_count() == 1
        pair.feed(0, fast(A, ts(3, 0)))
        pair.feed(0, stable(A, ts(3, 0)))
        assert pair.new.delivered() == [A.command_id, B.command_id]
        # The late proposal of a decided command is not answered.
        pair.feed(1, fast(B, ts(5, 1)))
        assert pair.new.answers(B) == []

    def test_stable_whose_predecessor_set_names_the_command_itself(self):
        """With no entry yet, translating the set interns the command's own id."""
        pair = Pair()
        pair.feed(0, stable(A, ts(3, 0), [A.command_id, B.command_id]))
        entry = pair.new.replica.history.get(A.command_id)
        assert entry.predecessors == {B.command_id}
        assert not entry.pred_mask >> entry.index & 1
        pair.feed(1, stable(B, ts(2, 1)))
        assert pair.new.delivered() == [B.command_id, A.command_id]

    def test_a_collected_predecessor_keeps_its_bit_and_stays_delivered(self):
        """GC empties a key's bucket; a late message naming the collected command
        must resolve to the bit it had, which the key's delivered set still holds."""
        pair = Pair()
        pair.feed(0, stable(A, ts(3, 0)))
        history = pair.new.replica.history
        bit = history.index_of(A.command_id)
        pair.collect(A)
        assert history.get(A.command_id) is None and not history.bucket("x").entries
        # A stable command naming the collected one is delivered at once...
        pair.feed(1, stable(B, ts(5, 1), [A.command_id]))
        assert history.index_of(A.command_id) == bit
        assert pair.new.delivered() == [A.command_id, B.command_id]
        # ...and a retransmitted Stable of the collected command is not executed twice.
        pair.feed(0, stable(A, ts(3, 0)))
        assert history.get(A.command_id).index == bit
        assert pair.new.replica.delivery.is_delivered(A.command_id)
        assert pair.new.replica.commands_executed == 2
        # A proposal on the key with every entry collected is answered at once.
        pair.collect(A)
        pair.collect(B)
        pair.feed(2, fast(C, ts(1, 2)))
        assert [answer.ok for answer in pair.new.answers(C)] == [True]

    def test_a_set_naming_a_collected_command_translates_against_every_interned_id(self):
        """After GC the key has interned ids without an entry, so its entries' mask
        is not the all-interned mask: a set that is most of the key, naming one
        collected command and not another, must keep the one and leave the other
        out both ways — into a mask (SlowPropose) and back into ids (its reply) —
        and a Stable naming it is delivered at once."""
        pair = Pair()
        g, d = command(4, 0), command(0, 1)
        e = command(3, 0)
        earlier = []
        for counter, cmd in ((3, A), (5, B), (7, C), (9, e), (11, g)):
            pair.feed(cmd.origin, stable(cmd, ts(counter, cmd.origin),
                                         [other.command_id for other in earlier]))
            earlier.append(cmd)
        history = pair.new.replica.history
        bit = history.index_of(A.command_id)
        pair.collect(A)
        pair.collect(g)
        named = [A.command_id, B.command_id, C.command_id, e.command_id]
        pair.feed(0, slow(d, ts(13, 0), named))
        assert pair.new.answers(d)[0].predecessors == set(named)
        pair.feed(0, stable(d, ts(13, 0), named))
        assert history.index_of(A.command_id) == bit
        assert history.get(d.command_id).predecessors == set(named)
        assert pair.new.delivered() == [
            cmd.command_id for cmd in (A, B, C, e, g, d)]

    def test_slow_propose_whose_predecessor_set_names_the_command_itself(self):
        pair = Pair()
        pair.feed(0, slow(A, ts(3, 0), [B.command_id, A.command_id]))
        assert pair.new.answers(A)[0].predecessors == {B.command_id}
        pair.feed(0, slow(A, ts(3, 0), [A.command_id]))
        assert pair.new.answers(A)[1].predecessors == frozenset()

    def park_a_behind_b(self, pair: Pair) -> None:
        """B is pending at a later timestamp and has not seen A: A must wait."""
        pair.feed(1, fast(B, ts(10, 1)))
        pair.feed(0, fast(A, ts(3, 0)), advance_ms=5.0)
        assert pair.new.replica.wait_manager.parked == 1
        assert pair.new.answers(A) == []

    def test_parked_proposal_is_answered_once_the_blocker_decides(self):
        for includes_a, ok in ((True, True), (False, False)):
            pair = Pair()
            self.park_a_behind_b(pair)
            pair.feed(1, stable(B, ts(10, 1), [A.command_id] if includes_a else []),
                      advance_ms=30.0)
            (answer,) = pair.new.answers(A)
            assert answer.ok is ok
            assert waits(pair.new) == (1, 30.0)
            assert pair.new.replica.stats.nacks_sent == (0 if ok else 1)

    def test_parked_proposal_overtaken_by_a_higher_ballot_sends_no_answer(self):
        pair = Pair()
        self.park_a_behind_b(pair)
        pair.feed(2, Recovery(command=A, ballot=Ballot(1, 2)))
        assert isinstance(pair.new.sent[-1][1], RecoveryReply)
        pair.feed(1, stable(B, ts(10, 1), [A.command_id]), advance_ms=30.0)
        assert pair.new.replica.wait_manager.parked == 0
        assert pair.new.answers(A) == []
        assert waits(pair.new) == (1, 30.0)

    def test_parked_proposal_overtaken_by_retry_sends_no_answer(self):
        pair = Pair()
        self.park_a_behind_b(pair)
        pair.feed(0, retry(A, ts(12, 0), [B.command_id]))
        assert pair.new.replica.wait_manager.parked == 0
        assert isinstance(pair.new.sent[-1][1], RetryReply)
        pair.feed(1, stable(B, ts(10, 1)), advance_ms=30.0)
        assert pair.new.answers(A) == []

    def test_parked_proposal_overtaken_by_stable_sends_no_answer(self):
        pair = Pair()
        self.park_a_behind_b(pair)
        pair.feed(0, stable(A, ts(12, 0), [B.command_id]))
        assert pair.new.replica.wait_manager.parked == 0
        pair.feed(1, stable(B, ts(10, 1)), advance_ms=30.0)
        assert pair.new.answers(A) == []
        assert pair.new.delivered() == [B.command_id, A.command_id]

    def test_a_write_announced_while_something_is_parked_reaches_the_wait_manager(self):
        """Each kind of write on the blocker must release (or keep) the parked proposal."""
        for release in (retry(B, ts(10, 1), [A.command_id]),
                        stable(B, ts(10, 1), [A.command_id]),
                        fast(B, ts(10, 1), Ballot(1, 3), frozenset([A.command_id])),
                        slow(B, ts(10, 1), [A.command_id])):
            pair = Pair()
            self.park_a_behind_b(pair)
            pair.feed(release.ballot.node_id, release, advance_ms=7.0)
            assert pair.new.replica.wait_manager.parked == 0, release
            assert [answer.ok for answer in pair.new.answers(A)] == [True], release

    def test_a_resent_proposal_whose_parked_first_copy_is_nacked_meanwhile(self):
        """The second FastPropose of A, at the same ballot, releases a parked B
        with a NACK; B's rejected entry releases A's parked first copy with a
        NACK, which rewrites A's entry REJECTED.  WAIT then answers the second
        copy OK at once, and the entry must be written back FAST_PENDING."""
        pair = Pair()
        E, W = C, command(3, 0)
        pair.feed(2, fast(E, ts(10, 2)))
        pair.feed(1, fast(B, ts(3, 1)))                  # parked behind E
        pair.feed(1, fast(B, ts(12, 1)))                 # same ballot, answered at once
        pair.feed(3, stable(W, ts(6, 3)))                # a NACK witness for A and B
        pair.feed(0, fast(A, ts(5, 0)))                  # parked behind E and B
        assert pair.new.replica.wait_manager.parked == 2
        pair.feed(2, stable(E, ts(10, 2), [A.command_id, B.command_id]))
        pair.feed(0, fast(A, ts(14, 0)))
        assert [answer.ok for answer in pair.new.answers(A)] == [False, True]
        assert [answer.ok for answer in pair.new.answers(B)] == [True, False]
        entry = pair.new.replica.history.get(A.command_id)
        assert (entry.status, entry.timestamp) == (CommandStatus.FAST_PENDING, ts(14, 0))
        assert entry.predecessors == {B.command_id, E.command_id, W.command_id}

    def test_a_proposal_on_another_key_than_a_parked_one_is_answered_at_once(self):
        """Something parked on one key leaves a proposal on another on the shortcut."""
        pair = Pair()
        self.park_a_behind_b(pair)
        other = command(3, 0, key="y")
        pair.feed(3, fast(other, ts(4, 3)))
        assert pair.new.answers(other) == [FastProposeReply(
            command_id=other.command_id, ballot=Ballot.initial(3), timestamp=ts(4, 3),
            predecessors=frozenset(), ok=True)]
        assert pair.new.replica.history.get(other.command_id).status is CommandStatus.FAST_PENDING
        assert pair.new.replica.wait_manager.parked == 1

    def test_higher_ballot_recovery_with_a_whitelist(self):
        pair = Pair()
        pair.feed(0, fast(A, ts(3, 0)))
        pair.feed(1, fast(B, ts(5, 1)))
        pair.feed(2, fast(C, ts(7, 2)))
        pair.feed(3, Recovery(command=C, ballot=Ballot(1, 3)))
        reply = pair.new.sent[-1][1]
        assert reply.known and reply.predecessors == {A.command_id, B.command_id}
        # The recovering leader re-proposes with the whitelist the quorum agreed on.
        pair.feed(3, fast(C, ts(7, 2), Ballot(1, 3), frozenset([B.command_id])))
        entry = pair.new.replica.history.get(C.command_id)
        assert entry.forced and entry.predecessors == {B.command_id}
        # The original leader's ballot is now stale: its resend is ignored.
        answers = len(pair.new.answers(C))
        pair.feed(2, fast(C, ts(7, 2)))
        assert len(pair.new.answers(C)) == answers

    def test_reads_among_writes(self):
        pair = Pair()
        read_one = command(0, 1, operation="get")
        read_two = command(1, 1, operation="get")
        pair.feed(0, fast(A, ts(3, 0)))
        pair.feed(0, fast(read_one, ts(6, 0)))
        pair.feed(1, fast(read_two, ts(4, 1)))      # earlier than a pending read: no wait
        assert pair.new.replica.wait_manager.parked == 0
        assert pair.new.answers(read_two)[0].predecessors == {A.command_id}
        pair.feed(1, fast(B, ts(5, 1)), advance_ms=3.0)  # a write behind a later read waits
        assert pair.new.replica.wait_manager.parked == 1
        pair.feed(0, stable(read_one, ts(6, 0), [A.command_id, B.command_id]), advance_ms=3.0)
        assert [answer.ok for answer in pair.new.answers(B)] == [True]

    def test_wait_condition_off_rejects_instead_of_parking(self):
        pair = Pair(wait_enabled=False)
        pair.feed(1, fast(B, ts(10, 1)))
        pair.feed(0, fast(A, ts(3, 0)))
        (answer,) = pair.new.answers(A)
        assert not answer.ok and answer.timestamp > ts(10, 1)
        assert pair.new.replica.wait_manager.parked == 0
        assert pair.new.replica.history.get(A.command_id).status is CommandStatus.REJECTED

    def test_immediate_nack_behind_a_decided_later_command(self):
        pair = Pair()
        pair.feed(1, stable(B, ts(10, 1)))
        pair.feed(0, fast(A, ts(3, 0)))
        (answer,) = pair.new.answers(A)
        assert not answer.ok and pair.new.replica.stats.nacks_sent == 1
        pair = Pair()
        pair.feed(1, stable(B, ts(10, 1)))
        pair.feed(2, slow(C, ts(4, 2)))
        assert [reply.ok for reply in pair.new.answers(C)] == [False]
        assert isinstance(pair.new.sent[-1][1], SlowProposeReply)


# ------------------------------------------------------------------- promises

#: What a promise step sends: (kind, which of A / B / C, ballot round, ballot
#: node, timestamp counter, which of the three its predecessor set names).
PROMISE_STEPS = st.lists(st.tuples(
    st.sampled_from(("fast", "slow", "retry", "stable", "recovery")), st.integers(0, 2),
    st.integers(0, 2), st.integers(0, REPLICAS - 1), st.integers(1, 9),
    st.sets(st.integers(0, 2), max_size=2)), min_size=1, max_size=24)


def promise_message(kind: str, cmd: Command, ballot: Ballot, counter: int, named) -> object:
    timestamp = ts(counter, cmd.origin)
    if kind == "fast":
        return fast(cmd, timestamp, ballot)
    if kind == "recovery":
        return Recovery(command=cmd, ballot=ballot)
    build = {"slow": slow, "retry": retry, "stable": stable}[kind]
    return build(cmd, timestamp, named, ballot)


class TestPromises:
    """The product keeps a command's promise on its entry, and in a table only
    above it; the spec keeps a plain register."""

    @given(steps=PROMISE_STEPS)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_messages_leave_the_promise_the_spec_register_holds(self, steps):
        pair = Pair()
        trio = (A, B, C)
        for kind, which, round_, node, counter, named in steps:
            message = promise_message(kind, trio[which], Ballot(round_, node), counter,
                                      [trio[i].command_id for i in named])
            pair.feed(node, message)
            for cmd in trio:
                mine = pair.new.replica.promised(cmd.command_id)
                theirs = pair.spec.replica.ballots.get(cmd.command_id)
                initial = Ballot.initial(cmd.origin)
                assert (mine or initial) == (theirs or initial), (
                    "spec disagrees", cmd.command_id, message, mine, theirs)
        assert check_promises([pair.new.replica]) == []

    def test_a_stable_below_a_recovery_prepare_keeps_the_prepare(self):
        pair = Pair()
        pair.feed(2, Recovery(command=A, ballot=Ballot(2, 2)))
        pair.feed(0, stable(A, ts(3, 0)))
        entry = pair.new.replica.history.get(A.command_id)
        assert entry.ballot == Ballot.initial(0)
        assert pair.new.replica.promises == {A.command_id: Ballot(2, 2)}
        # A recovery at the same ballot is not answered again; a higher one is.
        pair.feed(3, Recovery(command=A, ballot=Ballot(2, 2)))
        pair.feed(3, Recovery(command=A, ballot=Ballot(2, 3)))
        assert [dst for dst, message in pair.new.sent
                if isinstance(message, RecoveryReply)] == [2, 3]

    def test_a_run_without_failures_keeps_no_table(self):
        """Every promise is its entry's ballot: the table stays empty."""
        result = run_experiment(ExperimentConfig(
            protocol="caesar", conflict_rate=0.3, clients_per_site=2, duration_ms=2000.0,
            seed=5))
        assert result.metrics.count > 50
        assert [replica.promises for replica in result.cluster.replicas] == [{}] * 5


# ----------------------------------------------------------------- leader probe
#
# The leader half: ``CaesarReplica`` against the spec's P1-P10, P21-P30, R1-R4
# and S1 (the same kernel underneath, so the leader states, decision records,
# retransmit rounds and timers are compared field by field).  Replica 0 leads
# commands of its own and is fed seeded reply schedules: replies in any
# order, duplicated, at the round's ballot object, at an equal copy of it or
# at a stale one, OK or NACK; timer firings with fewer and with more than a
# classic quorum of votes; a detector that suspects the nodes yet to vote;
# its own broadcasts delivered back (so it executes, and late replies find no
# round); recoveries whose replies build leader states.


class _Peer:
    """A registered address with nothing behind it (the probe records the sends)."""

    crashed = False
    last_crashed_at = -1.0

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


class _Detector:
    """A failure detector that suspects whom the schedule says."""

    def __init__(self) -> None:
        self.suspected: set = set()

    def observe_any_message(self, src: int) -> None:
        pass

    def observe_heartbeat(self, message) -> None:
        pass


#: The commands replica 0 leads, three per key.
LED = [Command(command_id=(6, n), key=KEYS[n % 2], operation="put", value=f"l{n}", origin=0)
       for n in range(6)]
LED_BY_ID = {cmd.command_id: cmd for cmd in LED}
#: The origin of every command a probe is fed or leads, by id.
ORIGINS = {cmd.command_id: cmd.origin for cmd in COMMANDS + LED}
#: What a reply's predecessor set may name on each key.
LEADER_NAMEABLE_ON = {key: NAMEABLE_ON[key] + [cmd.command_id for cmd in LED if cmd.key == key]
                      for key in KEYS}
REPLY_TYPES = {PHASE_FAST: FastProposeReply, PHASE_SLOW: SlowProposeReply,
               PHASE_RETRY: RetryReply}


class LeaderProbe(Probe):
    """Replica 0 with four peer addresses registered (resends and the fast-quorum
    check see the whole cluster) and a detector the schedule controls."""

    def __init__(self, replica_class) -> None:
        super().__init__(replica_class)
        for node_id in range(1, REPLICAS):
            self.replica.network.register(_Peer(node_id))
        self.replica.failure_detector = _Detector()

    def observed(self) -> tuple:
        replica = self.replica
        states = {command_id: (
            state.command, state.ballot, state.phase, state.timestamp, state.whitelist,
            None if state.votes is None else (state.votes.threshold, state.votes.voters(),
                                              list(state.votes.payloads())),
            sorted(state.predecessors),
            None if state.timer is None else (state.timer.time, state.timer.cancelled),
            state.phase_started_at, state.went_slow, state.recovered)
            for command_id, state in replica.leader_states.items()}
        decisions = {command_id: (decision.kind, decision.decided_at, decision.executed_at,
                                  decision.propose_ms, decision.retry_ms, decision.deliver_ms)
                     for command_id, decision in replica.decisions.items()}
        rounds = [(key, entry.message, entry.tracker.voters(),
                   entry.deadline, entry.timeout, entry.attempts, entry.last_count)
                  for key, entry in replica.retransmit._entries.items()]
        return super().observed() + (states, decisions, rounds, pending_times(self.sim))


class LeaderPair:
    """The product's leader and the spec's, acted on in lock step."""

    def __init__(self) -> None:
        self.new = LeaderProbe(CaesarReplica)
        self.spec = LeaderProbe(SpecCaesarReplica)
        self.steps = 0

    def act(self, action, label: object = None) -> None:
        """Apply ``action(probe)`` to both sides, then compare everything observable."""
        before = len(self.new.sent)
        action(self.new)
        action(self.spec)
        self.steps += 1
        agree(self.new, self.spec, before, (self.steps, label))

    def submit(self, cmd: Command) -> None:
        self.act(lambda probe: probe.replica.submit(cmd, ignore), ("submit", cmd.command_id))

    def feed(self, src: int, message: object) -> None:
        self.act(lambda probe: probe.replica.handle_message(src, message), (src, message))

    def advance(self, ms: float) -> None:
        self.act(lambda probe: probe.sim.run(until=probe.sim.now + ms), ("advance", ms))

    def suspect(self, nodes) -> None:
        def apply(probe):
            probe.replica.failure_detector.suspected = set(nodes)
        self.act(apply, ("suspect", nodes))

    def deliver_own(self, index: int) -> None:
        """Hand the replica the ``index``-th message it sent, each side its own copy."""
        def apply(probe):
            probe.replica.handle_message(0, probe.sent[index][1])
        self.act(apply, ("own", index, self.new.sent[index][1]))

    def recover(self, cmd: Command) -> None:
        """Figure 5's prepare: the product's ``RecoveryManager``, the spec's own."""
        def apply(probe):
            (probe.replica.recovery if probe is self.new else probe.replica).start_recovery(cmd)
        self.act(apply, ("recover", cmd))

    def state(self, cmd: Command):
        return self.new.replica.leader_states.get(cmd.command_id)

    def reply(self, src: int, cmd: Command, *, ok: bool = True, timestamp=None,
              predecessors=(), ballot=None, kind=None) -> None:
        """Feed the answer ``src`` gives to the current round of ``cmd``."""
        state = self.state(cmd)
        phase = state.phase if state is not None else PHASE_FAST
        kind = kind or REPLY_TYPES[phase]
        fields = dict(command_id=cmd.command_id,
                      ballot=ballot or (state.ballot if state else Ballot.initial(0)),
                      timestamp=timestamp or (state.timestamp if state else ts(1, 0)),
                      predecessors=frozenset(predecessors))
        if kind is not RetryReply:
            fields["ok"] = ok
        self.feed(src, kind(**fields))


def drive_leader(seed: int, steps: int = 120) -> LeaderPair:
    """One seeded schedule of leader steps; every step is compared on both sides."""
    rng = random.Random(seed)
    pair = LeaderPair()
    replies: list = []
    for _ in range(steps):
        replica = pair.new.replica
        draw = rng.random()
        fresh = [cmd for cmd in LED if cmd.command_id not in replica.decisions]
        if draw < 0.10 and fresh:
            pair.submit(rng.choice(fresh))
        elif draw < 0.55 and (replica.decisions or replica.leader_states):
            cmd = LED_BY_ID[rng.choice(sorted(set(replica.decisions) | set(replica.leader_states)))]
            state = pair.state(cmd)
            if state is not None and rng.random() < 0.85:
                kind = REPLY_TYPES[state.phase]
            else:
                kind = rng.choice(list(REPLY_TYPES.values()))
            ballot = state.ballot if state is not None else Ballot.initial(0)
            pick = rng.random()
            if pick < 0.25:
                ballot = dataclasses.replace(ballot)    # equal, not identical
            elif pick < 0.35:
                ballot = Ballot(0, rng.randrange(1, REPLICAS))  # someone else's
            base = state.timestamp if state is not None else ts(3, 0)
            timestamp = (base if rng.random() < 0.5 else
                         LogicalTimestamp(max(0, base.counter + rng.randint(-2, 4)),
                                          rng.randrange(REPLICAS)))
            named = set(rng.sample(LEADER_NAMEABLE_ON[cmd.key], rng.choice((0, 0, 0, 1, 2))))
            if rng.random() < 0.2:
                named.add(cmd.command_id)
            fields = dict(command_id=cmd.command_id, ballot=ballot, timestamp=timestamp,
                          predecessors=frozenset(named))
            if kind is not RetryReply:
                fields["ok"] = rng.random() < 0.8
            src, message = rng.randrange(REPLICAS), kind(**fields)
            replies.append((src, message))
            pair.feed(src, message)
        elif draw < 0.62 and replies:
            src, message = rng.choice(replies)
            if rng.random() < 0.5:
                message = dataclasses.replace(message, ballot=dataclasses.replace(message.ballot))
            pair.feed(src, message)
        elif draw < 0.75:
            pair.advance(rng.choice((3.0, 40.0, 260.0, 800.0, 1600.0)))
        elif draw < 0.85 and pair.new.sent:
            own = [index for index, (dst, message) in enumerate(pair.new.sent)
                   if dst in ("all", 0) and not isinstance(message, Recovery)]
            stables = [index for index in own if isinstance(pair.new.sent[index][1], Stable)]
            if stables and rng.random() < 0.5:
                pair.deliver_own(rng.choice(stables))
            elif own:
                pair.deliver_own(rng.choice(own))
        elif draw < 0.90:
            pair.suspect(rng.choice(((), (4,), (3, 4), (2, 3, 4))))
        else:
            attempts = replica.recovery._attempts
            open_attempts = [cid for cid, attempt in attempts.items() if not attempt.dispatched]
            if open_attempts and rng.random() < 0.8:
                command_id = rng.choice(open_attempts)
                attempt = attempts[command_id]
                known = rng.random() < 0.8
                status = rng.choice(list(CommandStatus))
                fields = dict(command_id=command_id, ballot=attempt.ballot, known=known)
                if known:
                    fields.update(entry_ballot=rng.choice((Ballot.initial(0), attempt.ballot)),
                                  timestamp=ts(rng.randint(1, 9), rng.randrange(REPLICAS)),
                                  predecessors=frozenset(rng.sample(
                                      LEADER_NAMEABLE_ON[attempt.command.key],
                                      rng.randint(0, 3))),
                                  status=status.value, forced=rng.random() < 0.3)
                pair.feed(rng.randrange(1, REPLICAS), RecoveryReply(**fields))
            else:
                pair.recover(rng.choice(LED))
    return pair


class TestLeaderRandomSchedules:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_leader_schedule_agrees(self, seed):
        drive_leader(seed).advance(10000.0)

    def test_the_leader_schedules_reach_every_case(self):
        """Fast, slow and recovered decisions, retries, re-armed timeouts, resends,
        executions and replies that find no round must all occur."""
        totals: dict = {}
        for seed in range(60):
            pair = drive_leader(seed)
            stats = dataclasses.asdict(pair.new.replica.stats)
            for name in ("fast_decisions", "slow_decisions", "slow_proposals", "retries",
                         "recoveries_completed", "retransmissions_sent"):
                totals[name] = totals.get(name, 0) + stats[name]
            decisions = pair.new.replica.decisions.values()
            totals["executed"] = totals.get("executed", 0) + sum(
                decision.executed_at is not None for decision in decisions)
            totals["recovered"] = totals.get("recovered", 0) + sum(
                decision.kind is DecisionKind.RECOVERED for decision in decisions)
        assert all(count >= 10 for count in totals.values()), totals


L0, L1 = LED[0], LED[2]


class TestLeaderScenarios:
    def submitted(self, *commands: Command) -> LeaderPair:
        pair = LeaderPair()
        for cmd in commands or (L0,):
            pair.submit(cmd)
        return pair

    def stables(self, pair: LeaderPair) -> list:
        return [message for dst, message in pair.new.sent if isinstance(message, Stable)]

    def test_a_fast_quorum_of_oks_decides_on_the_fast_path(self):
        pair = self.submitted()
        for src in (0, 1, 2):
            pair.reply(src, L0)
        assert self.stables(pair) == []
        pair.reply(3, L0)
        (decided,) = self.stables(pair)
        assert decided.timestamp == ts(1, 0) and decided.predecessors == frozenset()
        assert pair.new.replica.decisions[L0.command_id].kind is DecisionKind.FAST
        assert pair.new.replica.leader_states == {} and not pair.new.replica.retransmit._entries

    def test_the_highest_timestamp_and_the_union_of_predecessors_less_the_command_win(self):
        pair = self.submitted()
        pair.reply(1, L0, timestamp=ts(7, 1), predecessors=[(0, 0), L0.command_id])
        pair.reply(2, L0, timestamp=ts(9, 2), predecessors=[(2, 0)])
        pair.reply(3, L0, timestamp=ts(9, 2))           # an equal copy of the highest
        pair.reply(4, L0, timestamp=ts(8, 4))
        (decided,) = self.stables(pair)
        assert decided.timestamp == ts(9, 2)
        assert decided.predecessors == {(0, 0), (2, 0)}

    def test_a_nack_sends_the_round_to_retry_and_a_classic_quorum_of_retry_replies_decides(self):
        pair = self.submitted()
        for src, ok in ((0, True), (1, False), (2, True), (3, True)):
            pair.reply(src, L0, ok=ok, timestamp=ts(4, src))
        assert pair.state(L0).phase == PHASE_RETRY
        assert isinstance(pair.new.sent[-1][1], Retry)
        for src in (1, 2, 3):
            pair.reply(src, L0, predecessors=[(0, 0)] if src == 2 else ())
        (decided,) = self.stables(pair)
        assert decided.timestamp == ts(4, 3) and decided.predecessors == {(0, 0)}
        assert pair.new.replica.decisions[L0.command_id].kind is DecisionKind.SLOW

    def test_an_equal_ballot_counts_and_a_stale_or_foreign_one_does_not(self):
        pair = self.submitted()
        ballot = pair.state(L0).ballot
        pair.reply(1, L0, ballot=dataclasses.replace(ballot))
        pair.reply(2, L0, ballot=Ballot(0, 3))
        pair.reply(3, L0, kind=SlowProposeReply)        # a reply for another phase
        assert pair.state(L0).votes.voters() == [1]

    def test_a_timeout_short_of_a_classic_quorum_rearms_and_one_past_it_goes_slow(self):
        pair = self.submitted()
        pair.reply(0, L0)
        pair.reply(1, L0)
        pair.advance(1600.0)
        assert pair.state(L0).phase == PHASE_FAST and pair.new.replica.stats.slow_proposals == 0
        pair.reply(2, L0, timestamp=ts(5, 2))
        pair.advance(1600.0)
        assert pair.state(L0).phase == PHASE_SLOW
        assert pair.new.sent[-1][1] == SlowPropose(command=L0, ballot=Ballot.initial(0),
                                                   timestamp=ts(5, 2),
                                                   predecessors=frozenset())

    def test_a_suspecting_detector_falls_back_once_every_trusted_node_voted(self):
        pair = self.submitted()
        pair.suspect((3, 4))
        pair.reply(0, L0)
        pair.reply(1, L0)
        assert pair.state(L0).phase == PHASE_FAST
        pair.reply(2, L0)
        assert pair.state(L0).phase == PHASE_SLOW

    def test_replies_after_the_stable_change_nothing(self):
        pair = self.submitted()
        for src in range(4):
            pair.reply(src, L0)
        sent = len(pair.new.sent)
        pair.reply(4, L0)
        pair.reply(1, L0, kind=RetryReply)
        assert len(pair.new.sent) == sent

    def test_the_leader_executes_its_own_stable_and_times_the_delivery_once(self):
        pair = self.submitted()
        for src in range(4):
            pair.reply(src, L0)
        stable_at = next(index for index, (_, message) in enumerate(pair.new.sent)
                         if isinstance(message, Stable))
        pair.advance(12.5)
        pair.deliver_own(stable_at)
        pair.deliver_own(stable_at)
        decision = pair.new.replica.decisions[L0.command_id]
        assert decision.executed_at == decision.decided_at + 12.5
        assert decision.deliver_ms == 12.5

    def test_recovery_built_states_resume_each_phase(self):
        for status in ("accepted", "slow-pending", "stable", "fast-pending", "rejected"):
            pair = self.submitted()
            pair.recover(L1)
            ballot = pair.new.replica.recovery._attempts[L1.command_id].ballot
            for src in (1, 2):
                pair.feed(src, RecoveryReply(command_id=L1.command_id, ballot=ballot, known=True,
                                             entry_ballot=Ballot.initial(0), timestamp=ts(4, 1),
                                             predecessors=frozenset([L0.command_id]),
                                             status=status))
            state = pair.state(L1)
            if status == "stable":
                assert state is None and self.stables(pair)[-1].command == L1
                continue
            assert state.recovered and state.ballot == ballot
            for src in (1, 2, 3, 4):
                pair.reply(src, L1, timestamp=ts(6, src))
            assert pair.new.replica.decisions.get(L1.command_id) is None
            assert self.stables(pair)[-1].command == L1, status

    def recovery_replies(self, pair: LeaderPair, *tuples) -> None:
        """Feed RECOVERYR ``(src, status, predecessors)`` tuples at the initial row ballot."""
        ballot = pair.new.replica.recovery._attempts[L1.command_id].ballot
        for src, status, predecessors in tuples:
            pair.feed(src, RecoveryReply(command_id=L1.command_id, ballot=ballot, known=True,
                                         entry_ballot=Ballot.initial(0), timestamp=ts(4, src),
                                         predecessors=frozenset(predecessors), status=status))

    def test_a_stable_tuple_wins_over_an_accepted_one(self):
        pair = self.submitted()
        pair.recover(L1)
        self.recovery_replies(pair, (1, "accepted", ()), (2, "stable", ()))
        assert self.stables(pair)[-1].command == L1

    def test_a_fast_pending_recovery_whitelists_what_fewer_than_a_majority_lack(self):
        """Three fast-pending tuples, this node's own among them: a predecessor
        reported once is missing from two, ``recovery_majority``, and is left out."""
        pair = self.submitted(L1)
        pair.deliver_own(0)
        pair.recover(L1)
        self.recovery_replies(pair, (1, "fast-pending", [L0.command_id, (0, 0)]),
                              (2, "fast-pending", [(0, 0)]))
        proposal = pair.new.sent[-1][1]
        assert isinstance(proposal, FastPropose) and proposal.whitelist == {(0, 0)}


# ------------------------------------------------------------- end to end
#
# A spec registered as a protocol and run as a cluster next to its product:
# every handler, the timers, the failure detector, the kernel and the cost
# charges at once, at figure scale.  ``tests/test_epaxos_differential.py``
# runs the EPaxos spec through the same two functions.


def _cell(pool: int, conflicts: float, **config) -> dict:
    return dict(conflict_rate=conflicts, shared_pool_size=pool, **config)


#: An open-loop run that crashes node 4 mid-run with recovery on, so recovery decides.
CRASH_CELL = dict(conflict_rate=0.3, seed=11, open_loop=True, arrival_rate_per_client=20.0,
                  duration_ms=3000.0, recovery=True, crash_at_ms=1500.0)
#: Small cells: one hot key with the wait condition on and off, a ten-key pool,
#: and the crash.  Only the crash cell runs the failure detector.
END_TO_END_CELLS = {
    "pool-1-wait-on": _cell(1, 1.0, seed=7),
    "pool-1-wait-off": _cell(1, 1.0, seed=7, protocol_options={"wait_condition": False}),
    "pool-10-conflicts-30": _cell(10, 0.3, seed=7),
    "crash-node-4": CRASH_CELL,
}


def run_cell(protocol: str, crash_at_ms: Optional[float] = None, **fields) -> tuple:
    """One run: its latency samples, ``(fast, slow)`` decisions, and every
    replica's execution order and stats (``graph_nodes_visited``, recoveries)."""
    config = ExperimentConfig(protocol=protocol, **{"clients_per_site": 2, "duration_ms": 2000.0,
                                                   "warmup_ms": 0.0, **fields})
    cluster = build_cluster(config)
    metrics = MetricsCollector()
    pool = attach_clients(cluster, config, metrics)
    if crash_at_ms is not None:
        cluster.crash_injector.schedule(ScheduledCrash(node_id=4, crash_at_ms=crash_at_ms))
    cluster.start()
    pool.start_all()
    cluster.run(config.duration_ms)
    pool.stop_all()
    cluster.run(config.drain_ms)
    return (metrics.samples, count_decisions(cluster.replicas),
            [[command.command_id for command in replica.execution_log]
             for replica in cluster.replicas],
            [replica.stats for replica in cluster.replicas])


def end_to_end(product: str, spec_class, cells: dict) -> dict:
    """Run each cell on the ``product`` protocol and on ``spec_class`` registered
    as a protocol, require the same run, and return the product's."""
    spec = f"spec-{product}"
    register_protocol(spec, spec_class)
    try:
        runs = {}
        for name, cell in cells.items():
            mine, theirs = (run_cell(protocol, **cell) for protocol in (product, spec))
            for position, (ours, its) in enumerate(zip(mine, theirs)):
                assert ours == its, ("spec disagrees", name, position)
            runs[name] = mine
        return runs
    finally:
        del PROTOCOLS[spec]


class TestSpecEndToEnd:
    @pytest.mark.parametrize("name", sorted(END_TO_END_CELLS))
    def test_the_spec_as_a_protocol_runs_the_cell_as_the_product_does(self, name):
        samples, decisions, orders, stats = end_to_end(
            "caesar", SpecCaesarReplica, {name: END_TO_END_CELLS[name]})[name]
        assert len(samples) >= 40 and all(orders)
        assert (sum(s.recoveries_completed for s in stats) > 0) is (name == "crash-node-4")
