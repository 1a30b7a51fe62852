"""Differential test: CAESAR's acceptor handlers vs the parent commit's.

A :class:`~repro.core.caesar.CaesarReplica` and ``tests/reference_caesar.py``
(the handlers, UPDATE and WAIT as they were before the entry found at the
top of a handler was handed down, over the node-wide interner of
``tests/reference_history.py``, kept verbatim) each sit alone on an idle
simulator and are fed the same messages at the same virtual times.  After
every message both must have sent the same messages (type, destination,
every field) in the same order and hold the same history rows (timestamp,
predecessor ids, status, ballot, forced), delivered set, ballot register,
logical clock, ``delivered_order``, ``wait_time_samples`` and ``stats``.
Everything is compared as command ids: the two sides number them
differently (per key here, per node in the reference).

The schedules are seeded random streams over a dozen commands on two keys —
duplicated and retransmitted proposals at the same ballot, ``Stable`` before
any proposal, predecessor sets that name the command itself or commands
never seen, retries overtaking parked proposals, recoveries at a higher
ballot with and without a whitelist, reads among writes, the wait condition
off — plus each of those written out as a scenario, so that a handler that
forgets one case fails a test that says which.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.caesar import CaesarReplica
from repro.core.config import CaesarConfig
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
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import uniform_topology
from tests.reference_caesar import ReferenceCaesarReplica

REPLICAS = 5
KEYS = ("x", "y")


class Probe:
    """One replica alone on an idle simulator, with what it sends recorded."""

    def __init__(self, replica_class, wait_enabled: bool = True) -> None:
        self.sim = Simulator(seed=1)
        network = Network(self.sim, uniform_topology(REPLICAS, rtt_ms=10.0))
        config = CaesarConfig(wait_condition_enabled=wait_enabled, recovery_enabled=False)
        self.replica: CaesarReplica = replica_class(
            0, self.sim, network, QuorumSystem.for_cluster(REPLICAS), KeyValueStore(), config)
        self.sent: List[Tuple[object, object]] = []
        self.replica.send = lambda dst, message: self.sent.append((dst, message))
        self.replica.broadcast = (
            lambda message, include_self=True: self.sent.append(("all", message)))

    def feed(self, src: int, message: object, advance_ms: float = 0.0) -> None:
        if advance_ms:
            self.sim.run(until=self.sim.now + advance_ms)
        self.replica.handle_message(src, message)

    def rows(self) -> list:
        return sorted((entry.command_id, entry.command, entry.timestamp,
                       sorted(entry.predecessors), entry.status, entry.ballot, entry.forced)
                      for entry in self.replica.history.entries())

    def observed(self) -> tuple:
        """Everything a peer, a client or a figure could tell the two replicas apart by."""
        replica = self.replica
        delivery = replica.delivery
        known = [entry.command_id for entry in replica.history.entries()] + NAMEABLE
        return (self.sent, self.rows(), sorted(filter(delivery.is_delivered, set(known))),
                dict(replica.ballots), replica.timestamps.current, delivery.delivered_order,
                delivery.pending_count(), delivery.missing_predecessors(),
                replica.wait_manager.parked_count(), replica.wait_manager.total_waits,
                replica.wait_manager.total_wait_ms, replica.wait_time_samples,
                dataclasses.asdict(replica.stats), replica.commands_executed,
                replica.cpu_busy_ms, replica.cpu_backlog_ms,
                [command.command_id for command in replica.execution_log])

    def answers(self, command: Command) -> list:
        """The proposal answers sent for ``command``, oldest first."""
        return [message for _, message in self.sent
                if isinstance(message, (FastProposeReply, SlowProposeReply))
                and message.command_id == command.command_id]


class Pair:
    """The rewritten replica and the reference, fed in lock step."""

    def __init__(self, wait_enabled: bool = True) -> None:
        self.new = Probe(CaesarReplica, wait_enabled)
        self.reference = Probe(ReferenceCaesarReplica, wait_enabled)
        self.fed = 0

    def feed(self, src: int, message: object, advance_ms: float = 0.0) -> None:
        self.new.feed(src, message, advance_ms)
        self.reference.feed(src, message, advance_ms)
        self.fed += 1
        new, reference = self.new.observed(), self.reference.observed()
        for position, (mine, theirs) in enumerate(zip(new, reference)):
            assert mine == theirs, (self.fed, message, position, mine, theirs)

    def collect(self, command: Command) -> None:
        """Garbage-collect ``command`` on both sides, as the history compactor would."""
        self.new.replica.history.remove(command.command_id)
        self.reference.replica.history.remove(command.command_id)
        assert self.new.observed() == self.reference.observed()

    def settle(self, advance_ms: float) -> None:
        """Let armed timers (the catch-up probe) fire on both sides."""
        self.new.sim.run(until=self.new.sim.now + advance_ms)
        self.reference.sim.run(until=self.reference.sim.now + advance_ms)
        assert self.new.observed() == self.reference.observed()


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


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
#: Ids a predecessor set or whitelist may name: every command, and two nobody
#: proposes per key — ``(8 + k, 0)`` and ``(8 + k, 1)`` on ``KEYS[k]`` (an id
#: is bound to the first key it is named on, and a replica refuses it on
#: another).
GHOSTS = [(8 + k, n) for k in range(len(KEYS)) for n in range(2)]
NAMEABLE = [cmd.command_id for cmd in COMMANDS] + GHOSTS


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
        # The draw is over the key's commands and two ghosts, which are then
        # the ghosts of this key.
        same_key = [other for other in NAMEABLE[:len(COMMANDS) + 2] if other[0] == 8
                    or COMMANDS[other[0] * 3 + other[1]].key == cmd.key]
        named = frozenset((other[0] + KEYS.index(cmd.key), other[1]) if other[0] == 8 else other
                          for other in rng.sample(same_key, rng.randint(0, min(4, len(same_key)))))
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
        """The streams are only worth their seeds if they park, reject, deliver and recover."""
        kinds, parked, nacks, waits, delivered = set(), 0, 0, 0, 0
        for seed in range(60):
            pair = Pair()
            for src, message, advance in random_schedule(seed):
                pair.feed(src, message, advance)
                parked = max(parked, pair.new.replica.wait_manager.parked_count())
            kinds.update(type(message) for _, message in pair.new.sent)
            nacks += pair.new.replica.stats.nacks_sent
            waits += len(pair.new.replica.wait_time_samples)
            delivered += len(pair.new.replica.delivery.delivered_order)
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
        assert pair.new.replica.delivery.delivered_order == [A.command_id, B.command_id]
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
        assert pair.new.replica.delivery.delivered_order == [B.command_id, A.command_id]

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
        assert pair.new.replica.delivery.delivered_order == [A.command_id, B.command_id]
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
        assert pair.new.replica.delivery.delivered_order == [
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
        assert pair.new.replica.wait_manager.parked_count() == 1
        assert pair.new.answers(A) == []

    def test_parked_proposal_is_answered_once_the_blocker_decides(self):
        for includes_a, ok in ((True, True), (False, False)):
            pair = Pair()
            self.park_a_behind_b(pair)
            pair.feed(1, stable(B, ts(10, 1), [A.command_id] if includes_a else []),
                      advance_ms=30.0)
            (answer,) = pair.new.answers(A)
            assert answer.ok is ok
            assert pair.new.replica.wait_time_samples == [30.0]
            assert pair.new.replica.stats.nacks_sent == (0 if ok else 1)

    def test_parked_proposal_overtaken_by_a_higher_ballot_sends_no_answer(self):
        pair = Pair()
        self.park_a_behind_b(pair)
        pair.feed(2, Recovery(command=A, ballot=Ballot(1, 2)))
        assert isinstance(pair.new.sent[-1][1], RecoveryReply)
        pair.feed(1, stable(B, ts(10, 1), [A.command_id]), advance_ms=30.0)
        assert pair.new.replica.wait_manager.parked_count() == 0
        assert pair.new.answers(A) == []
        assert pair.new.replica.wait_time_samples == [30.0]

    def test_parked_proposal_overtaken_by_retry_sends_no_answer(self):
        pair = Pair()
        self.park_a_behind_b(pair)
        pair.feed(0, retry(A, ts(12, 0), [B.command_id]))
        assert pair.new.replica.wait_manager.parked_count() == 0
        assert isinstance(pair.new.sent[-1][1], RetryReply)
        pair.feed(1, stable(B, ts(10, 1)), advance_ms=30.0)
        assert pair.new.answers(A) == []

    def test_parked_proposal_overtaken_by_stable_sends_no_answer(self):
        pair = Pair()
        self.park_a_behind_b(pair)
        pair.feed(0, stable(A, ts(12, 0), [B.command_id]))
        assert pair.new.replica.wait_manager.parked_count() == 0
        pair.feed(1, stable(B, ts(10, 1)), advance_ms=30.0)
        assert pair.new.answers(A) == []
        assert pair.new.replica.delivery.delivered_order == [B.command_id, A.command_id]

    def test_a_write_announced_while_something_is_parked_reaches_the_wait_manager(self):
        """Each kind of write on the blocker must release (or keep) the parked proposal."""
        for release in (retry(B, ts(10, 1), [A.command_id]),
                        stable(B, ts(10, 1), [A.command_id]),
                        fast(B, ts(10, 1), Ballot(1, 3), frozenset([A.command_id])),
                        slow(B, ts(10, 1), [A.command_id])):
            pair = Pair()
            self.park_a_behind_b(pair)
            pair.feed(release.ballot.node_id, release, advance_ms=7.0)
            assert pair.new.replica.wait_manager.parked_count() == 0, release
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
        assert pair.new.replica.wait_manager.parked_count() == 2
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
        assert pair.new.replica.wait_manager.parked_count() == 1

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
        assert pair.new.replica.wait_manager.parked_count() == 0
        assert pair.new.answers(read_two)[0].predecessors == {A.command_id}
        pair.feed(1, fast(B, ts(5, 1)), advance_ms=3.0)  # a write behind a later read waits
        assert pair.new.replica.wait_manager.parked_count() == 1
        pair.feed(0, stable(read_one, ts(6, 0), [A.command_id, B.command_id]), advance_ms=3.0)
        assert [answer.ok for answer in pair.new.answers(B)] == [True]

    def test_wait_condition_off_rejects_instead_of_parking(self):
        pair = Pair(wait_enabled=False)
        pair.feed(1, fast(B, ts(10, 1)))
        pair.feed(0, fast(A, ts(3, 0)))
        (answer,) = pair.new.answers(A)
        assert not answer.ok and answer.timestamp > ts(10, 1)
        assert pair.new.replica.wait_manager.parked_count() == 0
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
