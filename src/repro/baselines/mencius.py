"""Mencius: multi-leader consensus with pre-assigned rotating slots.

Every replica owns the log slots congruent to its id modulo the cluster size
(slot ``s`` belongs to replica ``s mod N``).  A replica orders a command by
placing it in its next owned slot and replicating it; because the log is
global, a slot can only be *executed* once every smaller slot is either
filled or explicitly skipped by its owner.

The performance-relevant property the paper leans on (Section II and
Figure 7) is that a Mencius leader cannot deliver before hearing from **all**
other replicas — it needs to learn that their interleaved slots are either
used or skipped — so every command's latency is governed by the farthest
node, not by a quorum.  That is exactly how the replica below behaves: a
command leader broadcasts its slot, every peer answers (acknowledging and
explicitly skipping its own empty smaller slots), and the leader commits only
after hearing from everyone.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.consensus.command import Command
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.codec import UINT, FrozenSetCodec, value_type
from repro.runtime.costs import CostModel
from repro.runtime.fields import COMMAND
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles
from repro.runtime.registry import register_message


# --------------------------------------------------------------------- wire


@register_message(slot=UINT, command=COMMAND)
@value_type
class SlotPropose:
    """Slot owner -> all: order ``command`` at ``slot``."""

    slot: int
    command: Command


@register_message(slot=UINT, sender=UINT)
@value_type
class SlotAck:
    """Peer -> slot owner: acknowledgement of a proposed slot."""

    slot: int
    sender: int


@register_message(slot=UINT, command=COMMAND)
@value_type
class SlotCommit:
    """Slot owner -> all: the slot is decided (execute once contiguous)."""

    slot: int
    command: Command


@register_message(sender=UINT, slots=FrozenSetCodec(UINT))
@value_type
class SkipAnnounce:
    """Replica -> all: the listed owned slots will never be used (no-ops)."""

    sender: int
    slots: FrozenSet[int]


class MenciusReplica(ProtocolKernel):
    """A Mencius replica on the simulated substrate."""

    protocol_name = "mencius"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.n = quorums.n
        self.committed: Dict[int, Optional[Command]] = {}
        #: per-slot ack collection; Mencius commits only after *all* peers
        #: answered, so the tracker threshold is the cluster size.
        self._acks: Dict[int, QuorumTracker] = {}
        self._pending: Dict[int, Command] = {}
        self._next_own_slot = node_id
        self._used_own_slots: Set[int] = set()
        #: own slots this replica decided never to use (announced to peers).
        self._own_skipped: Set[int] = set()
        #: slots other owners announced they will never use.
        self._skipped_by_others: Set[int] = set()
        self._next_execute = 0
        #: highest slot this replica has seen mentioned anywhere; execution
        #: lagging behind it is the catch-up trigger.
        self._max_seen_slot = -1

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Place ``command`` in this replica's next owned slot and replicate it."""
        slot = self._allocate_slot()
        self.stats.slots_proposed += 1
        self._pending[slot] = command
        self._acks[slot] = QuorumTracker(self.n, 1)
        self._used_own_slots.add(slot)
        self._max_seen_slot = max(self._max_seen_slot, slot)
        proposal = SlotPropose(slot, command)
        self.broadcast(proposal, include_self=False)
        self.retransmit.track(("slot", slot), proposal,
                              tracker=self._acks[slot])

    def _allocate_slot(self) -> int:
        """Next slot owned by this replica, at or after its allocation cursor."""
        slot = self._next_own_slot
        self._next_own_slot += self.n
        return slot

    # ------------------------------------------------------ message handling

    @handles(SlotPropose)
    def _on_propose(self, src: int, message: SlotPropose) -> None:
        """Peer side: skip own empty smaller slots, then acknowledge.

        Seeing a proposal for slot ``s`` means this replica should not later
        use an owned slot below ``s`` (it would delay delivery of ``s``), so it
        marks those slots as skipped and announces them to everyone.
        """
        self._max_seen_slot = max(self._max_seen_slot, message.slot)
        newly_skipped: Set[int] = set()
        while self._next_own_slot < message.slot:
            skipped = self._allocate_slot()
            self._own_skipped.add(skipped)
            newly_skipped.add(skipped)
            self.stats.slots_skipped += 1
        self.send(src, SlotAck(message.slot, self.node_id))
        if newly_skipped:
            self.broadcast(SkipAnnounce(self.node_id, frozenset(newly_skipped)),
                           include_self=False)
        self._execute_ready()

    @handles(SlotAck)
    def _on_ack(self, src: int, message: SlotAck) -> None:
        """Slot owner: commit once *all* peers acknowledged (slowest-node bound)."""
        acks = self._acks.get(message.slot)
        if acks is None or message.slot not in self._pending:
            return
        if not acks.vote(src):
            return
        command = self._pending.pop(message.slot)
        del self._acks[message.slot]
        self.retransmit.resolve(("slot", message.slot))
        self.stats.slots_committed += 1
        self.record_decided(command.command_id, DecisionKind.SLOW)
        self.broadcast(SlotCommit(message.slot, command))

    @handles(SlotCommit)
    def _on_commit(self, src: int, message: SlotCommit) -> None:
        """Every replica: record the decided slot and execute the log in order."""
        self.committed[message.slot] = message.command
        self._max_seen_slot = max(self._max_seen_slot, message.slot)
        self._execute_ready()

    @handles(SkipAnnounce)
    def _on_skip(self, src: int, message: SkipAnnounce) -> None:
        """Record slots another owner will never use."""
        self._skipped_by_others |= set(message.slots)
        if message.slots:
            self._max_seen_slot = max(self._max_seen_slot, max(message.slots))
        self._execute_ready()

    def _slot_resolved(self, slot: int) -> bool:
        """Whether ``slot`` is known to be either committed or permanently skipped."""
        if slot in self.committed:
            return True
        owner = slot % self.n
        if owner == self.node_id:
            if slot in self._own_skipped:
                return True
            # Own slots below the allocation cursor that were never used are
            # implicitly skipped (they can never be allocated again).
            return slot < self._next_own_slot and slot not in self._used_own_slots
        return slot in self._skipped_by_others

    def _execute_ready(self) -> None:
        """Execute the global log contiguously, treating skipped slots as no-ops."""
        while True:
            slot = self._next_execute
            if slot in self.committed:
                command = self.committed[slot]
                if command is not None and not self.has_executed(command.command_id):
                    self.execute_command(command)
                self._next_execute += 1
                continue
            if self._slot_resolved(slot):
                self._next_execute += 1
                continue
            break
        self.note_progress_gap()

    # --------------------------------------------------------------- catch-up

    def catchup_need(self):
        """Stuck when slots at/after the execution cursor were seen elsewhere."""
        if self._max_seen_slot >= self._next_execute:
            return (self._next_execute, ())
        return None

    def catchup_supply(self, cursor, want):
        """Replay commits at/after the cursor, plus the skips resolving gaps."""
        supplies = [SlotCommit(slot=slot, command=self.committed[slot])
                    for slot in sorted(self.committed)
                    if slot >= cursor and self.committed[slot] is not None]
        horizon = min(self._max_seen_slot + 1, cursor + 1024)
        skipped = frozenset(slot for slot in range(cursor, horizon)
                            if slot not in self.committed and self._slot_resolved(slot))
        if skipped:
            supplies.append(SkipAnnounce(sender=self.node_id, slots=skipped))
        return supplies
