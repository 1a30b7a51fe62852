"""EPaxos: Egalitarian Paxos (Moraru et al., SOSP 2013).

EPaxos is the closest competitor to CAESAR in the paper's evaluation.  Every
replica can lead commands; a command's *attributes* are a dependency set
(every interfering command the quorum knows about) and a sequence number.

* **Fast path** (2 delays): the command leader pre-accepts the command with
  its locally computed attributes; if a fast quorum replies with *identical*
  attributes, the command commits immediately.  This is exactly the condition
  CAESAR relaxes — any disagreement on dependencies forces EPaxos onto the
  slow path.
* **Slow path** (4 delays): the leader unions the replies' attributes and runs
  a classic Paxos accept round before committing.
* **Execution**: committed commands form a dependency graph; a command is
  executed by finding strongly connected components of its transitive
  dependency closure and executing them in reverse topological order,
  breaking ties inside a component by sequence number.  The graph analysis is
  the CPU cost the paper blames for EPaxos' degradation under high conflict
  rates; it is charged to the replica's simulated CPU here.

The replica keeps what it knows instead of re-deriving it: a per-key index of
write and read instances answers a conflict lookup with one set copy, a
dependency set is one frozenset shared by the instance and the messages that
carry it, and a committed instance whose dependencies are all executed skips
the graph walk but is charged exactly what the walk charges for its one node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, CommandId
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem, epaxos_fast_quorum_size
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.codec import BOOL, UINT
from repro.runtime.costs import CostModel
from repro.runtime.fields import (
    BALLOT,
    COMMAND,
    INSTANCE_ID,
    INSTANCE_ID_SET,
    OPTIONAL_COMMAND,
    OPTIONAL_STRING,
)
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles
from repro.runtime.registry import register_message

#: An EPaxos instance is identified by ``(leader_replica, instance_number)``.
InstanceId = Tuple[int, int]


class InstanceStatus(enum.Enum):
    """Lifecycle of an EPaxos instance on one replica."""

    PRE_ACCEPTED = "pre-accepted"
    ACCEPTED = "accepted"
    COMMITTED = "committed"
    EXECUTED = "executed"
    NOOP = "noop"


@dataclass
class Instance:
    """A replica's knowledge about one EPaxos instance."""

    instance_id: InstanceId
    command: Optional[Command]
    seq: int
    deps: FrozenSet[InstanceId]
    status: InstanceStatus
    ballot: Ballot
    _sorted_deps: Optional[List[InstanceId]] = None
    _sorted_for: Optional[FrozenSet[InstanceId]] = None

    def deps_sorted(self) -> List[InstanceId]:
        """Sorted view of ``deps``, cached until the set is reassigned.

        ``deps`` is only ever replaced wholesale (it is the frozenset of the
        message it came from or went out in), so identity of the set object is
        a sound cache key.  The execution graph
        walk re-visits blocked instances many times; sorting their dependency
        lists once instead of per visit is a large constant-factor win.
        """
        deps = self.deps
        if self._sorted_for is not deps:
            self._sorted_deps = sorted(deps)
            self._sorted_for = deps
        return self._sorted_deps


# --------------------------------------------------------------------- wire


@register_message(instance_id=INSTANCE_ID, command=COMMAND, seq=UINT,
                  deps=INSTANCE_ID_SET, ballot=BALLOT)
@dataclass(frozen=True, slots=True)
class PreAccept:
    """Leader -> replicas: phase-1 proposal with locally computed attributes."""

    instance_id: InstanceId
    command: Command
    seq: int
    deps: FrozenSet[InstanceId]
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, seq=UINT, deps=INSTANCE_ID_SET,
                  ballot=BALLOT, changed=BOOL)
@dataclass(frozen=True, slots=True)
class PreAcceptReply:
    """Replica -> leader: possibly augmented attributes."""

    instance_id: InstanceId
    seq: int
    deps: FrozenSet[InstanceId]
    ballot: Ballot
    changed: bool


@register_message(instance_id=INSTANCE_ID, command=COMMAND, seq=UINT,
                  deps=INSTANCE_ID_SET, ballot=BALLOT)
@dataclass(frozen=True, slots=True)
class Accept:
    """Leader -> replicas: slow-path accept with unioned attributes."""

    instance_id: InstanceId
    command: Command
    seq: int
    deps: FrozenSet[InstanceId]
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, ballot=BALLOT)
@dataclass(frozen=True, slots=True)
class AcceptReply:
    """Replica -> leader: slow-path acknowledgement."""

    instance_id: InstanceId
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, command=OPTIONAL_COMMAND, seq=UINT,
                  deps=INSTANCE_ID_SET)
@dataclass(frozen=True, slots=True)
class Commit:
    """Leader -> replicas: final attributes of a committed instance."""

    instance_id: InstanceId
    command: Optional[Command]
    seq: int
    deps: FrozenSet[InstanceId]


@register_message(instance_id=INSTANCE_ID, ballot=BALLOT)
@dataclass(frozen=True, slots=True)
class Prepare:
    """Recovery prepare for an instance whose leader is suspected."""

    instance_id: InstanceId
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, ballot=BALLOT, known=BOOL,
                  command=OPTIONAL_COMMAND, seq=UINT, deps=INSTANCE_ID_SET,
                  status=OPTIONAL_STRING)
@dataclass(frozen=True, slots=True)
class PrepareReply:
    """Reply to a recovery prepare with the replica's current instance state."""

    instance_id: InstanceId
    ballot: Ballot
    known: bool
    command: Optional[Command] = None
    seq: int = 0
    deps: FrozenSet[InstanceId] = frozenset()
    status: Optional[str] = None


@dataclass
class _LeaderState:
    """Book-keeping the command leader keeps for an in-flight instance."""

    instance_id: InstanceId
    command: Command
    phase: str  # "preaccept" | "accept" | "done"
    seq: int
    deps: FrozenSet[InstanceId]
    original_seq: int
    original_deps: FrozenSet[InstanceId]
    ballot: Ballot
    votes: QuorumTracker = field(default_factory=QuorumTracker.unreachable)
    went_slow: bool = False
    started_at: float = 0.0


@dataclass
class _RecoveryState:
    """Book-keeping for a recovery (explicit prepare) attempt."""

    instance_id: InstanceId
    ballot: Ballot
    votes: QuorumTracker = field(default_factory=QuorumTracker.unreachable)


class EPaxosReplica(ProtocolKernel):
    """An EPaxos replica on the simulated substrate.

    Args:
        node_id: replica index.
        sim / network / quorums / state_machine / cost_model: shared substrate.
        recovery_enabled: whether to run the failure detector and explicit
            prepare when a peer is suspected.
    """

    protocol_name = "epaxos"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None,
                 recovery_enabled: bool = True, heartbeat_every_ms: float = 100.0,
                 suspect_after_ms: float = 600.0) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.instances: Dict[InstanceId, Instance] = {}
        #: key -> (write instances, read instances); see ``_record_instance``.
        self._conflict_index: Dict[str, Tuple[Set[InstanceId], Set[InstanceId]]] = {}
        self._leader_states: Dict[InstanceId, _LeaderState] = {}
        self._recoveries: Dict[InstanceId, _RecoveryState] = {}
        self._next_instance = 0
        self._executed: Set[InstanceId] = set()
        self._unexecuted_committed: Set[InstanceId] = set()
        self._command_instance: Dict[CommandId, InstanceId] = {}
        self.fast_quorum = epaxos_fast_quorum_size(quorums.n)
        self.recovery_enabled = recovery_enabled
        if recovery_enabled:
            self.use_failure_detector(heartbeat_every_ms, suspect_after_ms,
                                      self._on_suspect)

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Lead a new instance for ``command`` (phase 1, PreAccept)."""
        instance_id = (self.node_id, self._next_instance)
        self._next_instance += 1
        deps = frozenset(self._interfering_instances(command, exclude=instance_id))
        seq = self._next_seq(deps)
        self.consume_cpu(self.cost_model.dependency_cost(len(deps)))
        instance = Instance(instance_id=instance_id, command=command, seq=seq,
                            deps=deps, status=InstanceStatus.PRE_ACCEPTED,
                            ballot=Ballot.initial(self.node_id))
        self._record_instance(instance)
        self._command_instance[command.command_id] = instance_id
        state = _LeaderState(instance_id=instance_id, command=command, phase="preaccept",
                             seq=seq, deps=deps, original_seq=seq,
                             original_deps=deps, ballot=instance.ballot,
                             votes=QuorumTracker(self.fast_quorum, extra_votes=1),
                             started_at=self.sim.now)
        self._leader_states[instance_id] = state
        pre_accept = PreAccept(instance_id=instance_id, command=command, seq=seq,
                               deps=deps, ballot=instance.ballot)
        self.broadcast(pre_accept, include_self=False)
        self.retransmit.track(("lead", instance_id), pre_accept,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == "done")

    # --------------------------------------------------------------- helpers

    def _interfering_instances(self, command: Command, exclude: InstanceId) -> Set[InstanceId]:
        """Instances known locally whose command conflicts with ``command``.

        :meth:`Command.conflicts_with` as one set copy: a ``get`` interferes
        with its key's writes, anything else with its writes and reads.
        """
        index = self._conflict_index.get(command.key)
        if index is None:
            return set()
        writes, reads = index
        result = writes | reads if command.is_write else writes.copy()
        result.discard(exclude)
        return result

    def _next_seq(self, deps: FrozenSet[InstanceId]) -> int:
        """1 + the maximum sequence number among the dependencies."""
        max_seq = 0
        for dep in deps:
            instance = self.instances.get(dep)
            if instance is not None and instance.seq > max_seq:
                max_seq = instance.seq
        return max_seq + 1

    def _record_instance(self, instance: Instance) -> None:
        """Store an instance and index it for conflict lookups.

        ``_conflict_index[key]`` holds the instances recorded with a write on
        ``key`` and those recorded with a read; an instance recorded without
        a command (a recovery no-op) is in neither, and an id recorded again
        first leaves the set its old command put it in.
        """
        instance_id = instance.instance_id
        previous = self.instances.get(instance_id)
        if previous is not None and previous.command is not None:
            self._index_for(previous.command).discard(instance_id)
        self.instances[instance_id] = instance
        command = instance.command
        if command is not None:
            self._index_for(command).add(instance_id)
            self._command_instance.setdefault(command.command_id, instance_id)

    def _index_for(self, command: Command) -> Set[InstanceId]:
        writes, reads = self._conflict_index.setdefault(command.key, (set(), set()))
        return writes if command.is_write else reads

    # phase 1 -----------------------------------------------------------------

    @handles(PreAccept)
    def _on_pre_accept(self, src: int, message: PreAccept) -> None:
        """Replica side of PreAccept: augment attributes with local knowledge."""
        existing = self.instances.get(message.instance_id)
        if existing is not None and existing.status in (InstanceStatus.COMMITTED,
                                                        InstanceStatus.EXECUTED):
            return
        if existing is not None and existing.ballot > message.ballot:
            return
        deps = message.deps | self._interfering_instances(message.command,
                                                          exclude=message.instance_id)
        seq = max(message.seq, self._next_seq(deps))
        self.consume_cpu(self.cost_model.dependency_cost(len(deps)))
        changed = deps != message.deps or seq != message.seq
        instance = Instance(instance_id=message.instance_id, command=message.command,
                            seq=seq, deps=deps, status=InstanceStatus.PRE_ACCEPTED,
                            ballot=message.ballot)
        self._record_instance(instance)
        self.send(src, PreAcceptReply(instance_id=message.instance_id, seq=seq,
                                      deps=deps, ballot=message.ballot,
                                      changed=changed))

    @handles(PreAcceptReply)
    def _on_pre_accept_reply(self, src: int, message: PreAcceptReply) -> None:
        """Leader side of phase 1: decide between the fast and slow paths."""
        state = self._leader_states.get(message.instance_id)
        if state is None or state.phase != "preaccept" or state.ballot != message.ballot:
            return
        # The leader itself counts towards the fast quorum (the tracker's
        # implicit extra vote).
        if not state.votes.vote(src, message):
            return
        replies = state.votes.payloads()
        unchanged = all(not reply.changed and
                        reply.deps == state.original_deps and
                        reply.seq == state.original_seq
                        for reply in replies)
        if unchanged:
            self._commit_instance(state, state.original_seq, state.original_deps, fast=True)
        else:
            merged_deps = state.original_deps.union(*[reply.deps for reply in replies])
            merged_seq = state.original_seq
            for reply in replies:
                merged_seq = max(merged_seq, reply.seq)
            state.seq = merged_seq
            state.deps = merged_deps
            state.phase = "accept"
            state.went_slow = True
            state.votes = QuorumTracker(self.quorums.classic, extra_votes=1)
            instance = self.instances[state.instance_id]
            instance.seq = merged_seq
            instance.deps = merged_deps
            instance.status = InstanceStatus.ACCEPTED
            accept = Accept(instance_id=state.instance_id, command=state.command,
                            seq=merged_seq, deps=merged_deps, ballot=state.ballot)
            self.broadcast(accept, include_self=False)
            # Supersede the PreAccept round: resends now carry the Accept.
            self.retransmit.track(("lead", state.instance_id), accept,
                                  tracker=state.votes,
                                  done=lambda s=state: s.phase == "done")

    # phase 2 (slow path) -----------------------------------------------------

    @handles(Accept)
    def _on_accept(self, src: int, message: Accept) -> None:
        """Replica side of the slow-path accept."""
        existing = self.instances.get(message.instance_id)
        if existing is not None and existing.ballot > message.ballot:
            return
        if existing is not None and existing.status in (InstanceStatus.COMMITTED,
                                                        InstanceStatus.EXECUTED):
            return
        instance = Instance(instance_id=message.instance_id, command=message.command,
                            seq=message.seq, deps=message.deps,
                            status=InstanceStatus.ACCEPTED, ballot=message.ballot)
        self._record_instance(instance)
        self.send(src, AcceptReply(instance_id=message.instance_id, ballot=message.ballot))

    @handles(AcceptReply)
    def _on_accept_reply(self, src: int, message: AcceptReply) -> None:
        """Leader side of the slow-path accept: commit on a classic quorum."""
        state = self._leader_states.get(message.instance_id)
        if state is None or state.phase != "accept" or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            return
        self._commit_instance(state, state.seq, state.deps, fast=False)

    # commit & execution ------------------------------------------------------

    def _commit_instance(self, state: _LeaderState, seq: int, deps: FrozenSet[InstanceId],
                         fast: bool) -> None:
        """Finalize an instance at the leader and broadcast the commit."""
        state.phase = "done"  # for the retransmit entry, which keeps its own reference
        del self._leader_states[state.instance_id]  # a late reply finds no state: ignored
        if fast:
            self.stats.fast_decisions += 1
            kind = DecisionKind.FAST
        else:
            self.stats.slow_decisions += 1
            kind = DecisionKind.SLOW
        command_id = state.command.command_id
        self.record_decided(command_id, kind)
        self.record_phase_time(command_id, "propose", self.sim.now - state.started_at)
        instance = self.instances[state.instance_id]
        instance.seq = seq
        instance.deps = deps
        instance.status = InstanceStatus.COMMITTED
        self._unexecuted_committed.add(state.instance_id)
        self.retransmit.resolve(("lead", state.instance_id))
        self.broadcast(Commit(instance_id=state.instance_id, command=state.command,
                              seq=seq, deps=deps),
                       include_self=False)
        self._try_execute()

    @handles(Commit)
    def _on_commit(self, src: int, message: Commit) -> None:
        """Replica side of commit: record final attributes and try to execute."""
        instance = self.instances.get(message.instance_id)
        if instance is None:
            instance = Instance(instance_id=message.instance_id, command=message.command,
                                seq=message.seq, deps=message.deps,
                                status=InstanceStatus.COMMITTED,
                                ballot=Ballot.initial(message.instance_id[0]))
            self._record_instance(instance)
        else:
            if instance.status is InstanceStatus.EXECUTED:
                return
            instance.command = instance.command or message.command
            instance.seq = message.seq
            instance.deps = message.deps
            instance.status = InstanceStatus.COMMITTED
        self._unexecuted_committed.add(message.instance_id)
        # A commit learned from elsewhere (recovery) supersedes a local round.
        # A recovery still collecting PrepareReplies is kept: it runs its round
        # once its quorum is in, and cutting it short changes the message flow.
        self._leader_states.pop(message.instance_id, None)
        self.retransmit.resolve(("lead", message.instance_id))
        self._try_execute()

    def _try_execute(self) -> None:
        """Execute every committed instance whose dependency closure is committed.

        Implements EPaxos' graph-based execution: strongly connected
        components of the committed dependency graph are executed in reverse
        topological order, commands inside a component by sequence number.
        Each round asks :meth:`_execution_order` about every waiting instance
        again (modelled CPU); only a round over nothing is skipped.
        """
        pending = self._unexecuted_committed
        progress = True
        while progress and pending:
            progress = False
            for instance_id in list(pending):
                if instance_id in self._executed:
                    pending.discard(instance_id)
                    continue
                component_order = self._execution_order(instance_id)
                if component_order is None:
                    continue
                for ready_id in component_order:
                    ready = self.instances[ready_id]
                    if ready_id in self._executed:
                        continue
                    self._executed.add(ready_id)
                    pending.discard(ready_id)
                    ready.status = InstanceStatus.EXECUTED
                    if ready.command is not None:
                        self.execute_command(ready.command)
                progress = True
        self.note_progress_gap()

    # catch-up ----------------------------------------------------------------

    @staticmethod
    def _instance_token(instance_id: InstanceId) -> str:
        return f"{instance_id[0]}:{instance_id[1]}"

    def catchup_need(self):
        """Stuck when committed instances wait on non-committed dependencies."""
        if not self._unexecuted_committed:
            return None
        want: Set[str] = set()
        for instance_id in self._unexecuted_committed:
            instance = self.instances.get(instance_id)
            if instance is None:
                continue
            for dep in instance.deps:
                if dep in self._executed:
                    continue
                known = self.instances.get(dep)
                if known is None or known.status in (InstanceStatus.PRE_ACCEPTED,
                                                     InstanceStatus.ACCEPTED):
                    want.add(self._instance_token(dep))
                    if len(want) >= 32:
                        break
            if len(want) >= 32:
                break
        if not want:
            return None
        return (0, tuple(sorted(want)))

    def catchup_supply(self, cursor, want):
        """Replay Commits for the requested instances this replica has decided."""
        supplies = []
        for token in want:
            leader, _, num = token.partition(":")
            try:
                instance_id = (int(leader), int(num))
            except ValueError:
                continue
            instance = self.instances.get(instance_id)
            if instance is None or instance.status not in (InstanceStatus.COMMITTED,
                                                           InstanceStatus.EXECUTED):
                continue
            supplies.append(Commit(instance_id=instance_id, command=instance.command,
                                   seq=instance.seq, deps=instance.deps))
        return supplies

    def _execution_order(self, root: InstanceId) -> Optional[List[InstanceId]]:
        """Iterative Tarjan SCC over the committed closure of ``root``.

        Returns the execution order (dependencies first), or ``None`` when the
        closure still contains an uncommitted instance, in which case the root
        cannot be executed yet.  ``root`` itself is not executed (the caller
        checks).

        For a committed root whose dependencies are all executed the walk
        would visit that one node, skip every dependency and pop a one-member
        component, so the answer is returned without building the walk, with
        the count and the CPU charge of one visited node: the virtual clock
        cannot tell the two apart.
        """
        instances = self.instances
        executed = self._executed
        instance = instances.get(root)
        if (instance is not None and instance.status is InstanceStatus.COMMITTED
                and instance.deps <= executed):
            self.stats.graph_nodes_visited += 1
            self.consume_cpu(self.cost_model.dependency_cost(1))
            return [root]
        order: List[InstanceId] = []
        index: Dict[InstanceId, int] = {}
        lowlink: Dict[InstanceId, int] = {}
        on_stack: Set[InstanceId] = set()
        stack: List[InstanceId] = []
        counter = 0
        visited_count = 0

        # Each frame is (node, iterator over deps, last child visited).
        work: List[list] = [[root, None, None]]
        while work:
            frame = work[-1]
            node, dep_iter, last_child = frame
            if dep_iter is None:
                instance = instances.get(node)
                if instance is None or instance.status in (InstanceStatus.PRE_ACCEPTED,
                                                           InstanceStatus.ACCEPTED):
                    self.stats.graph_nodes_visited += visited_count
                    self.consume_cpu(self.cost_model.dependency_cost(visited_count))
                    return None
                index[node] = counter
                lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
                visited_count += 1
                if instance.status is InstanceStatus.EXECUTED:
                    frame[1] = iter(())
                else:
                    frame[1] = iter(instance.deps_sorted())
                dep_iter = frame[1]
            if last_child is not None:
                lowlink[node] = min(lowlink[node], lowlink[last_child])
                frame[2] = None
            advanced = False
            for dep in dep_iter:
                if dep in executed:
                    continue
                if dep not in index:
                    frame[2] = dep
                    work.append([dep, None, None])
                    advanced = True
                    break
                if dep in on_stack:
                    lowlink[node] = min(lowlink[node], index[dep])
            if advanced:
                continue
            # Node finished: pop its SCC if it is a root.
            if lowlink[node] == index[node]:
                component: List[InstanceId] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.sort(key=lambda iid: (instances[iid].seq, iid))
                order.extend(member for member in component if member not in executed)
            work.pop()
            if work:
                work[-1][2] = node

        self.stats.graph_nodes_visited += visited_count
        self.consume_cpu(self.cost_model.dependency_cost(visited_count))
        return order

    # recovery ---------------------------------------------------------------

    def _on_suspect(self, peer: int) -> None:
        """Recover instances led by a suspected replica via explicit prepare."""
        if not self.recovery_enabled:
            return
        alive_lower = sum(1 for node_id in self.network.node_ids
                          if node_id < self.node_id and node_id != peer)
        delay = 50.0 * (1 + alive_lower)
        self.set_timer(delay, self._recover_instances_of, peer)

    def _recover_instances_of(self, peer: int) -> None:
        for instance_id, instance in list(self.instances.items()):
            if instance_id[0] != peer:
                continue
            if instance.status in (InstanceStatus.COMMITTED, InstanceStatus.EXECUTED):
                continue
            self.stats.recoveries += 1
            ballot = instance.ballot.next_for(self.node_id)
            instance.ballot = ballot
            self._recoveries[instance_id] = _RecoveryState(
                instance_id=instance_id, ballot=ballot,
                votes=QuorumTracker(self.quorums.classic, extra_votes=1))
            self.broadcast(Prepare(instance_id=instance_id, ballot=ballot), include_self=False)

    @handles(Prepare)
    def _on_prepare(self, src: int, message: Prepare) -> None:
        instance = self.instances.get(message.instance_id)
        if instance is None:
            reply = PrepareReply(instance_id=message.instance_id, ballot=message.ballot,
                                 known=False)
        else:
            if instance.ballot > message.ballot:
                return
            instance.ballot = message.ballot
            reply = PrepareReply(instance_id=message.instance_id, ballot=message.ballot,
                                 known=True, command=instance.command, seq=instance.seq,
                                 deps=instance.deps, status=instance.status.value)
        self.send(src, reply)

    @handles(PrepareReply)
    def _on_prepare_reply(self, src: int, message: PrepareReply) -> None:
        recovery = self._recoveries.get(message.instance_id)
        if recovery is None or recovery.ballot != message.ballot:
            return
        if not recovery.votes.vote(src, message):
            return
        del self._recoveries[message.instance_id]  # later replies find no state
        known = [reply for reply in recovery.votes.payloads() if reply.known]
        local = self.instances.get(message.instance_id)
        committed = [r for r in known if r.status in (InstanceStatus.COMMITTED.value,
                                                      InstanceStatus.EXECUTED.value)]
        accepted = [r for r in known if r.status == InstanceStatus.ACCEPTED.value]
        pre_accepted = [r for r in known if r.status == InstanceStatus.PRE_ACCEPTED.value]
        if committed:
            chosen = committed[0]
            self._adopt_commit(message.instance_id, chosen.command, chosen.seq, chosen.deps)
        elif accepted or pre_accepted or (local is not None and local.command is not None):
            source = (accepted or pre_accepted)
            if source:
                command = source[0].command
                seq = max(r.seq for r in source)
                deps = frozenset().union(*[r.deps for r in source])
            else:
                command = local.command
                seq = local.seq
                deps = local.deps
            state = _LeaderState(instance_id=message.instance_id, command=command,
                                 phase="accept", seq=seq, deps=deps, original_seq=seq,
                                 original_deps=deps, ballot=recovery.ballot,
                                 votes=QuorumTracker(self.quorums.classic, extra_votes=1),
                                 went_slow=True, started_at=self.sim.now)
            self._leader_states[message.instance_id] = state
            instance = Instance(instance_id=message.instance_id, command=command, seq=seq,
                                deps=deps, status=InstanceStatus.ACCEPTED,
                                ballot=recovery.ballot)
            self._record_instance(instance)
            self.broadcast(Accept(instance_id=message.instance_id, command=command, seq=seq,
                                  deps=deps, ballot=recovery.ballot),
                           include_self=False)
        else:
            # Nobody knows the command: commit a no-op so execution is never blocked.
            self._adopt_commit(message.instance_id, None, 0, frozenset())

    def _adopt_commit(self, instance_id: InstanceId, command: Optional[Command], seq: int,
                      deps: FrozenSet[InstanceId]) -> None:
        """Record and re-broadcast a commit learned during recovery."""
        instance = self.instances.get(instance_id)
        if instance is None:
            instance = Instance(instance_id=instance_id, command=command, seq=seq,
                                deps=deps, status=InstanceStatus.COMMITTED,
                                ballot=Ballot.initial(instance_id[0]))
            self._record_instance(instance)
        else:
            instance.command = instance.command or command
            instance.seq = seq
            instance.deps = deps
            if instance.status is not InstanceStatus.EXECUTED:
                instance.status = InstanceStatus.COMMITTED
        if instance.status is InstanceStatus.COMMITTED:
            self._unexecuted_committed.add(instance_id)
        self._leader_states.pop(instance_id, None)  # supersedes this replica's own round
        self.broadcast(Commit(instance_id=instance_id, command=command, seq=seq,
                              deps=deps), include_self=False)
        self._try_execute()
