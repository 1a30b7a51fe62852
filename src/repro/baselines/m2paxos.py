"""M2Paxos: ownership-based multi-leader Generalized Consensus (DSN 2016).

M2Paxos partitions the command space by key: each key has (at most) one
*owner* replica, and only the owner orders commands on that key.  A command
on an owned key needs a single accept round on a classic quorum (2 delays).
A command on a key owned by another replica is *forwarded* to the owner,
adding a wide-area hop — the effect the paper blames for M2Paxos' degradation
as the conflict rate grows (conflicting commands all hit the same shared keys
and most replicas are not their owners).  A command on an un-owned key first
runs an ownership-acquisition round, then the accept round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.codec import BOOL, STRING, UINT, OptionalCodec, SeqCodec, TupleCodec
from repro.runtime.costs import CostModel
from repro.runtime.fields import COMMAND
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles
from repro.runtime.registry import register_message

#: A per-key log position is identified by ``(key, index)``.
KeySlot = Tuple[str, int]

#: Base delay before re-attempting a failed ownership acquisition.  The
#: actual delay is ``base * attempt + stagger * node_id`` with ``stagger =
#: base / (n + 1)``: strictly increasing in the attempt count and distinct
#: across nodes for every (attempt, node) combination (the node stagger can
#: never bridge a full attempt step), so simultaneous contenders retry at
#: distinct times — the earliest wins while the others observe the new owner
#: and forward instead of re-contending.  This is what breaks the symmetric
#: acquisition livelock.  The base exceeds the widest one-way delay of the
#: paper's topologies so a retry round completes before the next contender
#: wakes up.
ACQUIRE_BACKOFF_BASE_MS = 400.0

#: Placeholder operation for gap-filling decides (never executed).
NOOP_OPERATION = "__noop__"


# --------------------------------------------------------------------- wire


@register_message(key=STRING, epoch=UINT, requester=UINT, next_execute=UINT)
@dataclass(frozen=True, slots=True)
class AcquireOwnership:
    """Requester -> all: ask to become the owner of ``key`` at ``epoch``.

    ``next_execute`` is the requester's per-key execution watermark: voters
    use it to report only the decided positions the requester may be missing.
    """

    key: str
    epoch: int
    requester: int
    next_execute: int = 0


@register_message(key=STRING, epoch=UINT, granted=BOOL,
                  current_owner=OptionalCodec(UINT), next_index=UINT,
                  accepted=SeqCodec(TupleCodec(UINT, UINT, COMMAND)),
                  decided=SeqCodec(TupleCodec(UINT, COMMAND)))
@dataclass(frozen=True, slots=True)
class AcquireReply:
    """Voter -> requester: grant or refuse the ownership request.

    ``next_index`` is the voter's view of the first unused per-key position
    (covering both decided commands and accepts it has acknowledged).  A new
    owner starts ordering at the maximum hint over its grant quorum; because
    any decided position was acknowledged by a classic quorum, quorum
    intersection guarantees the new owner never reuses a position a previous
    owner may have decided.

    ``accepted`` carries the voter's acknowledged-but-not-yet-decided
    commands for the key as ``(index, epoch, command)`` tuples, and
    ``decided`` the voter's decided commands at positions at or above the
    requester's execution watermark as ``(index, command)`` tuples.  The new
    owner adopts reported decisions directly and re-proposes reported
    accepts at their original positions under its higher epoch.  Every
    position a previous owner decided was acknowledged by a classic quorum,
    and each acknowledging voter either still stores the accept, has since
    learned the decision, or is the requester itself (which merges its own
    local state); the grant quorum intersects that ack quorum, so every
    possibly-decided position is reported to the new owner through one of
    those channels.  A position reported by no grant voter therefore can
    never be decided by anyone — any future ack quorum would need a voter
    that already moved past the old epoch — and is safely filled with a
    no-op.  Without gap filling, an acked-but-undecided position would
    stall the key's in-order execution everywhere, forever.
    """

    key: str
    epoch: int
    granted: bool
    current_owner: Optional[int]
    next_index: int = 0
    accepted: Tuple = ()
    decided: Tuple = ()


@register_message(command=COMMAND, hops=UINT)
@dataclass(frozen=True, slots=True)
class ForwardCommand:
    """Non-owner -> owner: please order this command on your key.

    ``hops`` counts how many times the command has been relayed.  Ownership
    beliefs learned from refusal gossip can be mutually stale after a split
    acquisition vote (replica A believes B owns the key while B believes A
    does), which would bounce a forward between them forever; once ``hops``
    reaches the cluster size the receiving replica treats its belief as
    stale and runs a fresh acquisition instead of relaying again.
    """

    command: Command
    hops: int = 0


@register_message(key=STRING, index=UINT, command=COMMAND, owner=UINT, epoch=UINT)
@dataclass(frozen=True, slots=True)
class AcceptCommand:
    """Owner -> all: accept ``command`` at per-key position ``index``."""

    key: str
    index: int
    command: Command
    owner: int
    epoch: int


@register_message(key=STRING, index=UINT, epoch=UINT)
@dataclass(frozen=True, slots=True)
class AcceptCommandReply:
    """Replica -> owner: acknowledgement of a per-key accept."""

    key: str
    index: int
    epoch: int


@register_message(key=STRING, index=UINT, epoch=UINT, current_epoch=UINT,
                  current_owner=OptionalCodec(UINT))
@dataclass(frozen=True, slots=True)
class AcceptNack:
    """Replica -> stale owner: the accept's epoch is obsolete.

    Without this message a deposed owner's in-flight accept round would stall
    forever (acceptors silently dropped stale accepts) and the command would
    never execute anywhere — the liveness hole behind the three-way
    contention livelock.  The nack carries the current epoch/owner so the
    deposed owner can re-route the command.
    """

    key: str
    index: int
    epoch: int
    current_epoch: int
    current_owner: Optional[int]


@register_message(key=STRING, index=UINT, command=COMMAND, owner=UINT, epoch=UINT)
@dataclass(frozen=True, slots=True)
class DecideCommand:
    """Owner -> all: the command at ``(key, index)`` is decided."""

    key: str
    index: int
    command: Command
    owner: int
    epoch: int


@dataclass
class _PendingAccept:
    """Owner-side bookkeeping for an in-flight per-key accept round."""

    key: str
    index: int
    command: Command
    epoch: int
    acks: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    decided: bool = False


@dataclass
class _PendingAcquire:
    """Requester-side bookkeeping for an ownership-acquisition round."""

    key: str
    epoch: int
    grants: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    refusals: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    queued: List[Command] = field(default_factory=list)
    done: bool = False
    #: highest-epoch acked-but-undecided command reported per index.
    recovered: Dict[int, Tuple[int, Command]] = field(default_factory=dict)
    #: decided commands reported per index by grant voters.
    decided: Dict[int, Command] = field(default_factory=dict)


class M2PaxosReplica(ProtocolKernel):
    """An M2Paxos replica on the simulated substrate."""

    protocol_name = "m2paxos"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.owners: Dict[str, int] = {}
        self.epochs: Dict[str, int] = {}
        self._next_index: Dict[str, int] = {}
        self._pending_accepts: Dict[KeySlot, _PendingAccept] = {}
        self._pending_acquires: Dict[str, _PendingAcquire] = {}
        #: decided commands per key, keyed by per-key position.
        self._decided: Dict[str, Dict[int, Command]] = {}
        self._next_execute: Dict[str, int] = {}
        #: highest per-key accept index this replica has acknowledged; fed
        #: back to new owners through AcquireReply.next_index.
        self._acked_index: Dict[str, int] = {}
        #: acknowledged accepts per key (highest epoch per position),
        #: reported to new owners so acked-but-undecided positions can be
        #: re-proposed; keyed by key so an ownership vote only scans the
        #: contested key's bucket, not the whole run history.
        self._accepted: Dict[str, Dict[int, Tuple[int, Command]]] = {}
        #: ids of commands this replica has seen decided at some position
        #: (guards against re-proposing a command that already has a slot).
        self._decided_ids: Set[CommandId] = set()
        self._noop_seq = 0
        #: commands parked per key while an acquisition backoff timer runs.
        self._backoff_queue: Dict[str, List[Command]] = {}
        #: per-key count of failed acquisition attempts (drives the backoff).
        self._acquire_attempts: Dict[str, int] = {}
        #: ids of commands this replica has led itself; a duplicated forward
        #: (chaos duplication fault, retransmitted ForwardCommand) must not
        #: burn a second per-key position.
        self._led_ids: Set[CommandId] = set()
        #: highest decided index seen per key, and the keys whose execution
        #: currently lags behind it — the catch-up trigger, maintained in
        #: O(1) per decide so the probe never scans all keys.
        self._max_decided: Dict[str, int] = {}
        self._gap_keys: Set[str] = set()

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Order a command: locally if owner, via acquisition or forwarding otherwise."""
        key = command.key
        owner = self.owners.get(key)
        if owner == self.node_id:
            self._lead(command)
        elif owner is None:
            self._acquire_then_lead(command)
        else:
            self.stats.commands_forwarded += 1
            self.send(owner, ForwardCommand(command=command))

    def _next_index_hint(self, key: str) -> int:
        """First per-key position this replica believes to be unused."""
        acked = self._acked_index.get(key)
        next_index = self._next_index.get(key, 0)
        if acked is not None and acked + 1 > next_index:
            return acked + 1
        return next_index

    def _lead(self, command: Command) -> None:
        """Owner path: one accept round on a classic quorum."""
        if command.command_id in self._decided_ids:
            # Already decided at some position (e.g. a re-routed command that
            # made it through before the re-route arrived); leading it again
            # would only waste a slot.
            return
        if command.command_id in self._led_ids:
            return
        self._led_ids.add(command.command_id)
        key = command.key
        index = self._next_index.get(key, 0)
        self._next_index[key] = index + 1
        self.stats.local_decisions += 1
        self._lead_at(key, index, command)

    def _lead_at(self, key: str, index: int, command: Command) -> None:
        """Run the accept round for ``command`` at an explicit position."""
        epoch = self.epochs.get(key, 0)
        pending = _PendingAccept(key=key, index=index, command=command, epoch=epoch,
                                 acks=QuorumTracker(self.quorums.classic, extra_votes=1))
        self._pending_accepts[(key, index)] = pending
        # The owner's implicit self-ack must be visible to acquisition
        # recovery exactly like a remote voter's ack, otherwise a grant
        # quorum containing (only) this node would fail to report the slot
        # and a new owner could no-op-fill a position that goes on to be
        # decided.
        self._accepted.setdefault(key, {})[index] = (epoch, command)
        acked = self._acked_index.get(key)
        if acked is None or index > acked:
            self._acked_index[key] = index
        accept = AcceptCommand(key=key, index=index, command=command,
                               owner=self.node_id, epoch=epoch)
        self.broadcast(accept, include_self=False)
        self.retransmit.track(("accept", key, index), accept,
                              tracker=pending.acks,
                              done=lambda p=pending: p.decided)

    def _acquire_then_lead(self, command: Command) -> None:
        """No owner known: run an ownership-acquisition round, queueing the command."""
        key = command.key
        backoff = self._backoff_queue.get(key)
        if backoff is not None:
            # A failed acquisition is waiting out its backoff; piggyback the
            # command instead of re-contending immediately.
            backoff.append(command)
            return
        pending = self._pending_acquires.get(key)
        if pending is not None and not pending.done:
            pending.queued.append(command)
            return
        epoch = self.epochs.get(key, 0) + 1
        self.epochs[key] = epoch
        self.stats.acquisitions += 1
        pending = _PendingAcquire(
            key=key, epoch=epoch, queued=[command],
            grants=QuorumTracker(self.quorums.classic, extra_votes=1),
            refusals=QuorumTracker(self.quorums.n - self.quorums.classic + 1))
        self._pending_acquires[key] = pending
        acquire = AcquireOwnership(key=key, epoch=epoch, requester=self.node_id,
                                   next_execute=self._next_execute.get(key, 0))
        self.broadcast(acquire, include_self=False)
        self.retransmit.track(
            ("acquire", key), acquire, done=lambda p=pending: p.done,
            voters=lambda p=pending: p.grants.voters() + p.refusals.voters())

    # ownership ---------------------------------------------------------------

    @handles(AcquireOwnership)
    def _on_acquire(self, src: int, message: AcquireOwnership) -> None:
        """Vote on an ownership request: grant strictly newer epochs only.

        Granting only strictly higher epochs means at most one replica can
        collect a grant quorum per (key, epoch), which keeps concurrent
        owners impossible; convergence under symmetric contention is handled
        on the requester side by the staggered backoff.
        """
        key = message.key
        current_epoch = self.epochs.get(key, 0)
        if message.epoch > current_epoch or (
                message.epoch == current_epoch
                and self.owners.get(key) == message.requester):
            # Same-epoch requests are re-granted only to the exact requester
            # previously granted (a retransmitted AcquireOwnership whose
            # reply was lost); two same-epoch contenders still cannot both
            # collect a grant quorum.
            self.epochs[key] = message.epoch
            self.owners[key] = message.requester
            accepted_bucket = self._accepted.get(key) or {}
            decided_bucket = self._decided.get(key) or {}
            accepted = tuple((index, epoch, command)
                             for index, (epoch, command) in accepted_bucket.items()
                             if index not in decided_bucket)
            decided = tuple((index, command)
                            for index, command in decided_bucket.items()
                            if index >= message.next_execute)
            self.send(src, AcquireReply(key=key, epoch=message.epoch, granted=True,
                                        current_owner=message.requester,
                                        next_index=self._next_index_hint(key),
                                        accepted=accepted, decided=decided))
        else:
            self.send(src, AcquireReply(key=key, epoch=message.epoch, granted=False,
                                        current_owner=self.owners.get(key)))

    @handles(AcquireReply)
    def _on_acquire_reply(self, src: int, message: AcquireReply) -> None:
        """Requester: become owner on a majority of grants, otherwise back off."""
        pending = self._pending_acquires.get(message.key)
        if pending is None or pending.done or pending.epoch != message.epoch:
            return
        key = message.key
        if message.granted:
            pending.grants.vote(src)
            if message.next_index > self._next_index.get(key, 0):
                self._next_index[key] = message.next_index
            for index, epoch, command in message.accepted:
                known = pending.recovered.get(index)
                if known is None or epoch > known[0]:
                    pending.recovered[index] = (epoch, command)
            for index, command in message.decided:
                pending.decided.setdefault(index, command)
        else:
            pending.refusals.vote(src)
        if pending.grants.reached:
            pending.done = True
            if self.epochs.get(key, 0) != pending.epoch:
                # While our round was in flight we granted a strictly newer
                # epoch to another contender; claiming ownership now would
                # put two owners at the same live epoch (our accepts would be
                # stamped with the newer epoch).  Abandon the stale win and
                # route the queued commands by current knowledge instead.
                self.stats.acquisition_failures += 1
                owner = self.owners.get(key)
                if owner is not None and owner != self.node_id:
                    self._acquire_attempts.pop(key, None)
                    for command in pending.queued:
                        self.stats.commands_forwarded += 1
                        self.send(owner, ForwardCommand(command=command))
                else:
                    self._schedule_acquire_retry(key, list(pending.queued))
                return
            self._acquire_attempts.pop(key, None)
            self.owners[key] = self.node_id
            self._adopt_acquired_state(key, pending)
            recovered_ids = self._recover_gaps(key, pending)
            for command in pending.queued:
                if command.command_id not in recovered_ids:
                    self._lead(command)
            return
        if pending.refusals.reached:
            # Majority can no longer be reached this epoch.
            pending.done = True
            self.stats.acquisition_failures += 1
            owner = message.current_owner
            if owner is not None and owner != self.node_id:
                self.owners[key] = owner
                self._acquire_attempts.pop(key, None)
                for command in pending.queued:
                    self.stats.commands_forwarded += 1
                    self.send(owner, ForwardCommand(command=command))
                return
            # No owner known (symmetric contention): retry after a backoff
            # that is strictly longer for higher node ids, so exactly one
            # contender re-acquires first and the rest observe its ownership.
            self._schedule_acquire_retry(key, list(pending.queued))

    def _adopt_acquired_state(self, key: str, pending: _PendingAcquire) -> None:
        """Fold own and grant-reported knowledge into the new owner's view.

        The requester is itself a grant voter, so its locally acked accepts
        and index watermark count toward the quorum-intersection coverage;
        decisions reported by voters are adopted outright (they are final).
        """
        decided_bucket = self._decided.setdefault(key, {})
        for index, (epoch, command) in (self._accepted.get(key) or {}).items():
            if index in decided_bucket:
                continue
            known = pending.recovered.get(index)
            if known is None or epoch > known[0]:
                pending.recovered[index] = (epoch, command)
        hint = self._next_index_hint(key)
        if hint > self._next_index.get(key, 0):
            self._next_index[key] = hint
        accepted_bucket = self._accepted.get(key)
        for index, command in pending.decided.items():
            if index not in decided_bucket:
                decided_bucket[index] = command
                self._decided_ids.add(command.command_id)
                if accepted_bucket is not None:
                    accepted_bucket.pop(index, None)
            if index >= self._next_index.get(key, 0):
                self._next_index[key] = index + 1
        if pending.decided:
            self._execute_ready(key)

    def _recover_gaps(self, key: str, pending: _PendingAcquire) -> Set[CommandId]:
        """Re-propose or no-op-fill undecided positions below the index hint.

        Returns the ids of re-proposed commands so the caller does not lead
        them a second time from its own queue.

        Positions a deposed owner acked on some quorum are re-proposed with
        the reported command (if a previous owner decided the position, the
        grant quorum intersects its ack quorum, so the identical command is
        re-decided there).  Positions no grant voter reported can never be
        decided by anyone — every future ack quorum would need a voter that
        already moved past the old epoch — so they are filled with a no-op
        that advances execution without touching the state machine.
        """
        recovered_ids: Set[CommandId] = set()
        decided_bucket = self._decided.get(key) or {}
        next_index = self._next_index.get(key, 0)
        for index in range(self._next_execute.get(key, 0), next_index):
            if index in decided_bucket or (key, index) in self._pending_accepts:
                continue
            recovered = pending.recovered.get(index)
            if recovered is not None and recovered[1].command_id not in self._decided_ids:
                recovered_ids.add(recovered[1].command_id)
                self._lead_at(key, index, recovered[1])
            else:
                self._noop_seq += 1
                noop = Command(command_id=(-(self.node_id + 1), self._noop_seq),
                               key=key, operation=NOOP_OPERATION, value=None,
                               origin=self.node_id, payload_size=0)
                self._lead_at(key, index, noop)
        return recovered_ids

    def _schedule_acquire_retry(self, key: str, commands: List[Command]) -> None:
        """Park ``commands`` and retry the acquisition after a staggered delay."""
        if not commands:
            return
        backoff = self._backoff_queue.get(key)
        if backoff is not None:
            backoff.extend(commands)
            return
        attempt = self._acquire_attempts.get(key, 0) + 1
        self._acquire_attempts[key] = attempt
        self.stats.acquisition_backoffs += 1
        self._backoff_queue[key] = list(commands)
        stagger = ACQUIRE_BACKOFF_BASE_MS / (self.quorums.n + 1)
        delay = ACQUIRE_BACKOFF_BASE_MS * attempt + stagger * self.node_id
        self.set_timer(delay, self._retry_after_backoff, key)

    def _retry_after_backoff(self, key: str) -> None:
        """Backoff expired: re-route the parked commands with fresh knowledge."""
        commands = self._backoff_queue.pop(key, None)
        if not commands:
            return
        for command in commands:
            # May lead (we since became owner), forward (a winner emerged),
            # or start a fresh, higher-epoch acquisition.
            self.propose(command)

    @handles(ForwardCommand)
    def _on_forward(self, src: int, message: ForwardCommand) -> None:
        """Owner side of forwarding: order the command as if proposed locally."""
        key = message.command.key
        owner = self.owners.get(key)
        if owner == self.node_id:
            self._lead(message.command)
        elif owner is None:
            self._acquire_then_lead(message.command)
        elif owner == src or message.hops >= self.quorums.n:
            # The supposed owner bounced the command back to us (mutual stale
            # beliefs after a split vote) or the forward has cycled through
            # the cluster: our ownership knowledge is wrong, so stop relaying
            # and settle the key with a fresh, higher-epoch acquisition.
            del self.owners[key]
            self._acquire_then_lead(message.command)
        else:
            self.send(owner, ForwardCommand(command=message.command,
                                            hops=message.hops + 1))

    # ordering ----------------------------------------------------------------

    @handles(AcceptCommand)
    def _on_accept(self, src: int, message: AcceptCommand) -> None:
        """Replica side of a per-key accept: record the owner and acknowledge.

        Stale-epoch accepts are answered with an explicit nack (instead of
        being dropped) so a deposed owner can re-route its in-flight
        commands; otherwise they would never execute anywhere.
        """
        key = message.key
        current_epoch = self.epochs.get(key, 0)
        if message.epoch < current_epoch:
            self.send(src, AcceptNack(key=key, index=message.index, epoch=message.epoch,
                                      current_epoch=current_epoch,
                                      current_owner=self.owners.get(key)))
            return
        self.epochs[key] = message.epoch
        self.owners[key] = message.owner
        acked = self._acked_index.get(key)
        if acked is None or message.index > acked:
            self._acked_index[key] = message.index
        bucket = self._accepted.setdefault(key, {})
        stored = bucket.get(message.index)
        if stored is None or message.epoch >= stored[0]:
            bucket[message.index] = (message.epoch, message.command)
        self.send(src, AcceptCommandReply(key=key, index=message.index,
                                          epoch=message.epoch))

    @handles(AcceptNack)
    def _on_accept_nack(self, src: int, message: AcceptNack) -> None:
        """Deposed owner: drop the stale accept round and re-route its command."""
        pending = self._pending_accepts.get((message.key, message.index))
        if pending is None or pending.decided or pending.epoch != message.epoch:
            return
        del self._pending_accepts[(message.key, message.index)]
        self.retransmit.resolve(("accept", message.key, message.index))
        self.stats.accepts_preempted += 1
        key = message.key
        if message.current_epoch > self.epochs.get(key, 0):
            self.epochs[key] = message.current_epoch
            if message.current_owner is not None and message.current_owner != self.node_id:
                self.owners[key] = message.current_owner
            elif self.owners.get(key) == self.node_id:
                # We no longer own the key at the current epoch.
                del self.owners[key]
        self._reroute_preempted(key, message.index, pending.command)

    def _reroute_preempted(self, key: str, index: int, command: Command) -> None:
        """Give a command whose accept round was superseded a new path.

        If this replica meanwhile re-acquired the key, the accept is re-run
        at the SAME position (so no execution gap is left behind); otherwise
        the command is re-proposed, which forwards it to the current owner
        or starts a fresh acquisition.  A command already decided somewhere
        needs nothing further.
        """
        if command.command_id in self._decided_ids:
            return
        if self.owners.get(key) == self.node_id and index not in (self._decided.get(key) or {}):
            self._lead_at(key, index, command)
        else:
            # The command gets a genuinely new round; forget the old lead so
            # the duplicate guard does not swallow the re-proposal.
            self._led_ids.discard(command.command_id)
            self.propose(command)

    @handles(AcceptCommandReply)
    def _on_accept_reply(self, src: int, message: AcceptCommandReply) -> None:
        """Owner: decide once a classic quorum acknowledged the accept.

        A round whose epoch has been superseded (this replica granted or
        learned a newer epoch while replies were in flight) is dropped and
        its command re-routed instead of being decided at the stale epoch.
        """
        pending = self._pending_accepts.get((message.key, message.index))
        if pending is None or pending.decided or pending.epoch != message.epoch:
            return
        if pending.epoch < self.epochs.get(message.key, 0):
            del self._pending_accepts[(message.key, message.index)]
            self.retransmit.resolve(("accept", message.key, message.index))
            self.stats.accepts_preempted += 1
            self._reroute_preempted(message.key, message.index, pending.command)
            return
        if not pending.acks.vote(src):
            return
        pending.decided = True
        self.retransmit.resolve(("accept", message.key, message.index))
        self.record_decided(pending.command.command_id, DecisionKind.FAST)
        self.broadcast(DecideCommand(key=pending.key, index=pending.index,
                                     command=pending.command, owner=self.node_id,
                                     epoch=pending.epoch))

    @handles(DecideCommand)
    def _on_decide(self, src: int, message: DecideCommand) -> None:
        """Every replica: record the decision and execute the per-key log in order."""
        if message.epoch >= self.epochs.get(message.key, 0):
            self.epochs[message.key] = message.epoch
            self.owners[message.key] = message.owner
        bucket = self._decided.setdefault(message.key, {})
        existing = bucket.get(message.index)
        if existing is None or (existing.operation == NOOP_OPERATION
                                and message.command.operation != NOOP_OPERATION
                                and message.index >= self._next_execute.get(message.key, 0)):
            # Per-slot decisions are unique by quorum intersection; the only
            # permitted replacement is a real command overtaking a gap-filling
            # no-op that has not been executed past yet, which keeps every
            # replica's slot assignment convergent.
            bucket[message.index] = message.command
            self._decided_ids.add(message.command.command_id)
        accepted_bucket = self._accepted.get(message.key)
        if accepted_bucket is not None:
            accepted_bucket.pop(message.index, None)
        if message.index >= self._next_index.get(message.key, 0):
            self._next_index[message.key] = message.index + 1
        if message.index > self._max_decided.get(message.key, -1):
            self._max_decided[message.key] = message.index
        self._execute_ready(message.key)

    def _execute_ready(self, key: str) -> None:
        """Execute decided commands of ``key`` contiguously by index."""
        bucket = self._decided.get(key)
        if not bucket:
            return
        index = self._next_execute.get(key, 0)
        while index in bucket:
            command = bucket[index]
            if (command.operation != NOOP_OPERATION
                    and not self.has_executed(command.command_id)):
                self.execute_command(command)
            index += 1
        self._next_execute[key] = index
        if index <= self._max_decided.get(key, -1):
            self._gap_keys.add(key)
            self.note_progress_gap()
        else:
            self._gap_keys.discard(key)

    # catch-up ----------------------------------------------------------------

    def catchup_need(self):
        """Stuck when a key's execution lags behind its highest decided index."""
        if not self._gap_keys:
            return None
        tokens = []
        for key in sorted(self._gap_keys):
            next_execute = self._next_execute.get(key, 0)
            if next_execute > self._max_decided.get(key, -1):
                self._gap_keys.discard(key)
                continue
            tokens.append(f"{key}:{next_execute}")
            if len(tokens) >= 32:
                break
        if not tokens:
            return None
        return (0, tuple(tokens))

    def catchup_supply(self, cursor, want):
        """Replay decides at/after the requested per-key watermarks."""
        supplies = []
        for token in want:
            key, _, raw = token.rpartition(":")
            try:
                start = int(raw)
            except ValueError:
                continue
            bucket = self._decided.get(key)
            if not bucket:
                continue
            owner = self.owners.get(key)
            epoch = self.epochs.get(key, 0)
            if owner is None:
                # Ownership unknown here; a wrong owner hint self-heals via
                # the forward/hops machinery, the decided log is what counts.
                owner, epoch = self.node_id, 0
            replayed = 0
            for index in sorted(bucket):
                if index < start:
                    continue
                supplies.append(DecideCommand(key=key, index=index,
                                              command=bucket[index],
                                              owner=owner, epoch=epoch))
                replayed += 1
                if replayed >= 16:
                    break
        return supplies
