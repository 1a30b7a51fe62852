"""Multi-Paxos: single designated leader, totally ordered log.

The deployment model follows the paper's evaluation (Figure 7): one replica
is the designated leader (Ireland or Mumbai in the paper); clients submit
commands to their local replica, which forwards them to the leader; the
leader assigns consecutive log slots and replicates each slot with one accept
round to a majority; commits are broadcast and every replica executes the log
in slot order.  The client's latency therefore includes the forwarding hop
when it is not co-located with the leader — exactly the effect the paper
highlights when the leader is far away.

A minimal leader re-election (lowest live replica takes over after the
failure detector suspects the leader, re-proposing unchosen slots it knows
about) is included so the protocol keeps making progress in crash tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.codec import SINT, UINT, SeqCodec, TupleCodec
from repro.runtime.costs import CostModel
from repro.runtime.fields import BALLOT, COMMAND
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles
from repro.runtime.registry import register_message


# --------------------------------------------------------------------- wire


@register_message(command=COMMAND)
@dataclass(frozen=True, slots=True)
class ClientForward:
    """Non-leader replica -> leader: please order this client command."""

    command: Command


@register_message(slot=UINT, command=COMMAND, ballot=BALLOT)
@dataclass(frozen=True, slots=True)
class AcceptSlot:
    """Leader -> replicas: accept ``command`` in log position ``slot``."""

    slot: int
    command: Command
    ballot: Ballot


@register_message(slot=UINT, ballot=BALLOT)
@dataclass(frozen=True, slots=True)
class AcceptSlotReply:
    """Replica -> leader: acknowledgement of an accepted slot."""

    slot: int
    ballot: Ballot


@register_message(slot=UINT, command=COMMAND)
@dataclass(frozen=True, slots=True)
class CommitSlot:
    """Leader -> replicas: ``slot`` is chosen; execute in log order."""

    slot: int
    command: Command


@register_message(ballot=BALLOT, from_slot=UINT)
@dataclass(frozen=True, slots=True)
class LeaderPrepare:
    """New leader -> replicas: prepare for take-over with a higher ballot."""

    ballot: Ballot
    from_slot: int


@register_message(ballot=BALLOT, accepted=SeqCodec(TupleCodec(UINT, COMMAND)),
                  highest_slot=SINT)
@dataclass(frozen=True, slots=True)
class LeaderPrepareReply:
    """Replica -> new leader: accepted-but-uncommitted slots plus its log frontier."""

    ballot: Ballot
    accepted: tuple  # tuple of (slot, command)
    highest_slot: int = -1


@dataclass
class _SlotState:
    """Leader-side bookkeeping for an in-flight slot."""

    slot: int
    command: Command
    ballot: Ballot
    votes: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    committed: bool = False


class MultiPaxosReplica(ProtocolKernel):
    """A Multi-Paxos replica.

    Args:
        leader_id: index of the designated leader replica (defaults to 0; the
            Figure 7 experiments use the Ireland or Mumbai site).
        recovery_enabled: run a failure detector and elect a new leader when
            the current one is suspected.
    """

    protocol_name = "multipaxos"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None,
                 leader_id: int = 0, recovery_enabled: bool = True,
                 heartbeat_every_ms: float = 100.0, suspect_after_ms: float = 600.0) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.leader_id = leader_id
        self.ballot = Ballot.initial(leader_id)
        self.log: Dict[int, Command] = {}
        self.committed: Dict[int, Command] = {}
        self._slot_states: Dict[int, _SlotState] = {}
        self._next_slot = 0
        self._next_execute = 0
        #: commands already assigned a slot here; a duplicated forward (chaos
        #: duplication fault, retransmitted ClientForward) must not burn a
        #: second slot.
        self._led_ids = set()
        #: highest slot known committed anywhere; execution lagging behind it
        #: is the catch-up trigger.
        self._max_committed = -1
        self.recovery_enabled = recovery_enabled
        self._election_votes: Optional[QuorumTracker] = None
        self._electing = False
        if recovery_enabled:
            self.use_failure_detector(heartbeat_every_ms, suspect_after_ms,
                                      self._on_suspect)

    @property
    def is_leader(self) -> bool:
        """Whether this replica currently acts as the designated leader."""
        return self.node_id == self.leader_id

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Order a client command: lead it if leader, otherwise forward."""
        if self.is_leader:
            self._lead(command)
        else:
            self.stats.commands_forwarded += 1
            self.send(self.leader_id, ClientForward(command=command))

    def _lead(self, command: Command) -> None:
        """Assign the next log slot and run the accept round."""
        if command.command_id in self._led_ids:
            return
        self._led_ids.add(command.command_id)
        slot = self._next_slot
        self._next_slot += 1
        self.stats.slots_proposed += 1
        state = _SlotState(slot=slot, command=command, ballot=self.ballot,
                           votes=QuorumTracker(self.quorums.classic, extra_votes=1))
        self._slot_states[slot] = state
        self.log[slot] = command
        accept = AcceptSlot(slot=slot, command=command, ballot=self.ballot)
        self.broadcast(accept, include_self=False)
        self.retransmit.track(("slot", slot), accept,
                              tracker=state.votes, done=lambda s=state: s.committed)

    # ------------------------------------------------------ message handling

    @handles(ClientForward)
    def _on_forward(self, src: int, message: ClientForward) -> None:
        """Leader side of a forwarded client command."""
        if not self.is_leader:
            # Stale forwarding during an election: forward onwards.
            self.send(self.leader_id, message)
            return
        self._lead(message.command)

    @handles(AcceptSlot)
    def _on_accept(self, src: int, message: AcceptSlot) -> None:
        """Acceptor: store the slot value and acknowledge."""
        if message.ballot < self.ballot:
            return
        self.ballot = message.ballot
        self.leader_id = message.ballot.node_id
        self.log[message.slot] = message.command
        self.send(src, AcceptSlotReply(slot=message.slot, ballot=message.ballot))

    @handles(AcceptSlotReply)
    def _on_accept_reply(self, src: int, message: AcceptSlotReply) -> None:
        """Leader: commit the slot once a majority has accepted it."""
        state = self._slot_states.get(message.slot)
        if state is None or state.committed or state.ballot != message.ballot:
            return
        if not state.votes.vote(src):
            return
        state.committed = True
        self.retransmit.resolve(("slot", state.slot))
        self.stats.slots_committed += 1
        self.record_decided(state.command.command_id, DecisionKind.SLOW)
        self.broadcast(CommitSlot(slot=state.slot, command=state.command))

    @handles(CommitSlot)
    def _on_commit(self, src: int, message: CommitSlot) -> None:
        """Every replica: record the chosen value and execute the log in order."""
        self.committed[message.slot] = message.command
        self.log[message.slot] = message.command
        self._max_committed = max(self._max_committed, message.slot)
        self._execute_ready()
        self.note_progress_gap()

    def _execute_ready(self) -> None:
        """Execute committed slots contiguously from the execution frontier."""
        while self._next_execute in self.committed:
            command = self.committed[self._next_execute]
            if not self.has_executed(command.command_id):
                self.execute_command(command)
            self._next_execute += 1

    # --------------------------------------------------------------- catch-up

    def catchup_need(self):
        """Stuck when a slot at/after the execution cursor committed elsewhere."""
        if self._max_committed >= self._next_execute:
            return (self._next_execute, ())
        return None

    def catchup_supply(self, cursor, want):
        """Replay every locally known commit at or after the cursor."""
        return [CommitSlot(slot=slot, command=self.committed[slot])
                for slot in sorted(self.committed) if slot >= cursor]

    # --------------------------------------------------------------- election

    def _on_suspect(self, peer: int) -> None:
        """Trigger a leader election when the current leader is suspected."""
        if peer != self.leader_id or not self.recovery_enabled:
            return
        live = [n for n in self.network.node_ids if n != peer]
        if self.node_id != min(live):
            return
        self._start_election()

    def _start_election(self) -> None:
        """Become leader: prepare with a higher ballot and collect accepted slots."""
        if self._electing:
            return
        self._electing = True
        self.stats.elections += 1
        self.ballot = Ballot(self.ballot.round + 1, self.node_id)
        self._election_votes = QuorumTracker(self.quorums.classic, extra_votes=1)
        self.broadcast(LeaderPrepare(ballot=self.ballot, from_slot=self._next_execute),
                       include_self=False)

    @handles(LeaderPrepare)
    def _on_leader_prepare(self, src: int, message: LeaderPrepare) -> None:
        if message.ballot < self.ballot:
            return
        self.ballot = message.ballot
        self.leader_id = message.ballot.node_id
        accepted = tuple((slot, command) for slot, command in sorted(self.log.items())
                         if slot >= message.from_slot and slot not in self.committed)
        highest = max(list(self.log.keys()) + list(self.committed.keys()), default=-1)
        self.send(src, LeaderPrepareReply(ballot=message.ballot, accepted=accepted,
                                          highest_slot=highest))

    @handles(LeaderPrepareReply)
    def _on_leader_prepare_reply(self, src: int, message: LeaderPrepareReply) -> None:
        if not self._electing or message.ballot != self.ballot:
            return
        if not self._election_votes.vote(src, message):
            return
        self._electing = False
        self.leader_id = self.node_id
        replies = self._election_votes.payloads()
        known_slots = ([self._next_slot - 1] +
                       list(self.log.keys()) + list(self.committed.keys()) +
                       [reply.highest_slot for reply in replies] +
                       [slot for reply in replies for slot, _ in reply.accepted])
        highest = max(known_slots, default=-1)
        self._next_slot = highest + 1
        # Re-propose every accepted-but-uncommitted slot reported by the quorum.
        for reply in replies:
            for slot, command in reply.accepted:
                if slot in self.committed or slot in self._slot_states:
                    continue
                state = _SlotState(slot=slot, command=command, ballot=self.ballot,
                                   votes=QuorumTracker(self.quorums.classic, extra_votes=1))
                self._slot_states[slot] = state
                self.log[slot] = command
                accept = AcceptSlot(slot=slot, command=command, ballot=self.ballot)
                self.broadcast(accept, include_self=False)
                self.retransmit.track(("slot", slot), accept, tracker=state.votes,
                                      done=lambda s=state: s.committed)
