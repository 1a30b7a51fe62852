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

The replica keeps what it knows instead of re-deriving it, each fact at the
size of its contents: a per-key index of write and read instances, each a
sorted list, answers a conflict lookup with one copy; a dependency set is the
strictly ascending tuple the wire carries, shared by the instance and the
messages that carry it; and a committed instance whose dependencies are all
executed skips the graph walk but is charged exactly what the walk charges
for its one node.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import filterfalse
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.interface import DecisionKind
from repro.consensus.quorums import QuorumSystem, epaxos_fast_quorum_size
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.codec import BOOL, UINT, value_type
from repro.runtime.costs import CostModel
from repro.runtime.fields import (
    BALLOT,
    COMMAND,
    INSTANCE_ID,
    INSTANCE_ID_SEQ,
    OPTIONAL_COMMAND,
    OPTIONAL_STRING,
)
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles
from repro.runtime.registry import register_message

#: An EPaxos instance is identified by ``(leader_replica, instance_number)``.
InstanceId = Tuple[int, int]
#: A dependency set: its instance ids in strictly ascending order.
Deps = Tuple[InstanceId, ...]


def _union(*id_groups: Iterable[InstanceId]) -> Deps:
    """Every id of the groups, once each, in ascending order."""
    return tuple(sorted(set().union(*id_groups)))


class InstanceStatus(enum.Enum):
    """Lifecycle of an EPaxos instance on one replica."""

    PRE_ACCEPTED = "pre-accepted"
    ACCEPTED = "accepted"
    COMMITTED = "committed"
    EXECUTED = "executed"
    NOOP = "noop"


@dataclass(slots=True)
class Instance:
    """A replica's knowledge about one EPaxos instance."""

    instance_id: InstanceId
    command: Optional[Command]
    seq: int
    deps: Deps
    status: InstanceStatus
    ballot: Ballot

    def deps_sorted(self) -> Deps:
        """The dependencies in the order a graph walk visits them: ``deps``
        itself, which is kept ascending."""
        return self.deps


# --------------------------------------------------------------------- wire


@register_message(instance_id=INSTANCE_ID, command=COMMAND, seq=UINT,
                  deps=INSTANCE_ID_SEQ, ballot=BALLOT)
@value_type
class PreAccept:
    """Leader -> replicas: phase-1 proposal with locally computed attributes."""

    instance_id: InstanceId
    command: Command
    seq: int
    deps: Deps
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, seq=UINT, deps=INSTANCE_ID_SEQ,
                  ballot=BALLOT, changed=BOOL)
@value_type
class PreAcceptReply:
    """Replica -> leader: possibly augmented attributes."""

    instance_id: InstanceId
    seq: int
    deps: Deps
    ballot: Ballot
    changed: bool


@register_message(instance_id=INSTANCE_ID, command=COMMAND, seq=UINT,
                  deps=INSTANCE_ID_SEQ, ballot=BALLOT)
@value_type
class Accept:
    """Leader -> replicas: slow-path accept with unioned attributes."""

    instance_id: InstanceId
    command: Command
    seq: int
    deps: Deps
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, ballot=BALLOT)
@value_type
class AcceptReply:
    """Replica -> leader: slow-path acknowledgement."""

    instance_id: InstanceId
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, command=OPTIONAL_COMMAND, seq=UINT,
                  deps=INSTANCE_ID_SEQ)
@value_type
class Commit:
    """Leader -> replicas: final attributes of a committed instance."""

    instance_id: InstanceId
    command: Optional[Command]
    seq: int
    deps: Deps


@register_message(instance_id=INSTANCE_ID, ballot=BALLOT)
@value_type
class Prepare:
    """Recovery prepare for an instance whose leader is suspected."""

    instance_id: InstanceId
    ballot: Ballot


@register_message(instance_id=INSTANCE_ID, ballot=BALLOT, known=BOOL,
                  command=OPTIONAL_COMMAND, seq=UINT, deps=INSTANCE_ID_SEQ,
                  status=OPTIONAL_STRING)
@value_type
class PrepareReply:
    """Reply to a recovery prepare with the replica's current instance state."""

    instance_id: InstanceId
    ballot: Ballot
    known: bool
    command: Optional[Command] = None
    seq: int = 0
    deps: Deps = ()
    status: Optional[str] = None


@dataclass(slots=True)
class _LeaderState:
    """Book-keeping the command leader keeps for an in-flight instance."""

    instance_id: InstanceId
    command: Command
    phase: str  # "preaccept" | "accept" | "done"
    seq: int
    deps: Deps
    original_seq: int
    original_deps: Deps
    ballot: Ballot
    votes: QuorumTracker
    went_slow: bool = False


@dataclass
class _RecoveryState:
    """Book-keeping for a recovery (explicit prepare) attempt."""

    instance_id: InstanceId
    ballot: Ballot
    votes: QuorumTracker


class EPaxosReplica(ProtocolKernel):
    """An EPaxos replica on the simulated substrate.

    Args:
        node_id: replica index.
        sim / network / quorums / state_machine / cost_model: shared substrate.
    """

    protocol_name = "epaxos"

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel] = None) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.instances: Dict[InstanceId, Instance] = {}
        #: key -> instances recorded with a write / with a read, each list in
        #: ascending order; see ``_record_instance``.
        self._writes_on: Dict[str, List[InstanceId]] = {}
        self._reads_on: Dict[str, List[InstanceId]] = {}
        self._leader_states: Dict[InstanceId, _LeaderState] = {}
        self._recoveries: Dict[InstanceId, _RecoveryState] = {}
        self._next_instance = 0
        #: A dict used as a set: its table is a fraction of a set's at this size.
        self._executed: Dict[InstanceId, None] = {}
        self._unexecuted_committed: Set[InstanceId] = set()
        self.fast_quorum = epaxos_fast_quorum_size(quorums.n)

    # ----------------------------------------------------------- client path

    def propose(self, command: Command) -> None:
        """Lead a new instance for ``command`` (phase 1, PreAccept)."""
        instance_id = (self.node_id, self._next_instance)
        self._next_instance += 1
        deps = self._interfering_instances(command, exclude=instance_id)
        seq = self._next_seq(deps)
        # CostModel.dependency_cost, inlined: the same product, and 0.0 for none.
        self.consume_cpu(self.cost_model.per_dependency_ms * len(deps))
        instance = Instance(instance_id, command, seq, deps, InstanceStatus.PRE_ACCEPTED,
                            Ballot.initial(self.node_id))
        self._record_instance(instance)
        state = _LeaderState(instance_id, command, "preaccept", seq, deps, seq, deps,
                             instance.ballot, QuorumTracker(self.fast_quorum, 1), False)
        self._leader_states[instance_id] = state
        pre_accept = PreAccept(instance_id, command, seq, deps, instance.ballot)
        self.broadcast(pre_accept, include_self=False)
        self.retransmit.track(("lead", instance_id), pre_accept,
                              tracker=state.votes,
                              done=lambda s=state: s.phase == "done")

    # --------------------------------------------------------------- helpers

    def _interfering_instances(self, command: Command, exclude: InstanceId) -> Deps:
        """Instances known locally whose command conflicts with ``command``,
        ``exclude`` left out, in ascending order.

        :meth:`Command.conflicts_with` over the per-key index: a ``get``
        interferes with its key's writes, a ``put`` with its writes and reads.
        An id is in one of a key's two lists at most, so the merge repeats none.
        """
        key = command.key
        ids = self._writes_on.get(key, ())
        if command.is_write:
            reads = self._reads_on.get(key)
            if reads:
                ids = sorted([*ids, *reads])
        position = bisect_left(ids, exclude)
        if position < len(ids) and ids[position] == exclude:
            return (*ids[:position], *ids[position + 1:])
        return tuple(ids)

    def _next_seq(self, deps: Deps) -> int:
        """1 + the maximum sequence number among the dependencies."""
        max_seq = 0
        for dep in deps:
            instance = self.instances.get(dep)
            if instance is not None and instance.seq > max_seq:
                max_seq = instance.seq
        return max_seq + 1

    def _record_instance(self, instance: Instance) -> None:
        """Store an instance and index it for conflict lookups.

        ``_writes_on[key]`` holds the instances recorded with a write on
        ``key`` and ``_reads_on[key]`` those recorded with a read, each an
        ascending list made when its first instance arrives; an instance
        recorded without a command (a recovery no-op) is in neither, and an id
        recorded again first leaves the list its old command put it in.
        """
        instance_id = instance.instance_id
        previous = self.instances.get(instance_id)
        self.instances[instance_id] = instance
        self._reindex(instance_id, None if previous is None else previous.command,
                      instance.command)

    def _reindex(self, instance_id: InstanceId, old: Optional[Command],
                 new: Optional[Command]) -> None:
        """Move ``instance_id`` from the list ``old`` put it in to ``new``'s."""
        if old is not None:
            ids = self._index_for(old)
            del ids[bisect_left(ids, instance_id)]
        if new is not None:
            insort(self._index_for(new), instance_id)

    def _index_for(self, command: Command) -> List[InstanceId]:
        index = self._writes_on if command.is_write else self._reads_on
        instances = index.get(command.key)
        if instances is None:
            instances = index[command.key] = []
        return instances

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
        deps = message.deps
        interfering = self._interfering_instances(message.command, exclude=message.instance_id)
        if interfering != deps:  # else the reply shares the proposal's tuple
            deps = _union(deps, interfering)
        seq = max(message.seq, self._next_seq(deps))
        self.consume_cpu(self.cost_model.per_dependency_ms * len(deps))
        changed = deps != message.deps or seq != message.seq
        instance = Instance(message.instance_id, message.command, seq, deps,
                            InstanceStatus.PRE_ACCEPTED, message.ballot)
        self._record_instance(instance)
        self.send(src, PreAcceptReply(message.instance_id, seq, deps, message.ballot,
                                      changed))

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
            merged_deps = _union(state.original_deps, *[reply.deps for reply in replies])
            merged_seq = state.original_seq
            for reply in replies:
                merged_seq = max(merged_seq, reply.seq)
            state.seq = merged_seq
            state.deps = merged_deps
            state.phase = "accept"
            state.went_slow = True
            state.votes = QuorumTracker(self.quorums.classic, 1)
            instance = self.instances[state.instance_id]
            instance.seq = merged_seq
            instance.deps = merged_deps
            instance.status = InstanceStatus.ACCEPTED
            accept = Accept(state.instance_id, state.command, merged_seq, merged_deps,
                            state.ballot)
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
        instance = Instance(message.instance_id, message.command, message.seq, message.deps,
                            InstanceStatus.ACCEPTED, message.ballot)
        self._record_instance(instance)
        self.send(src, AcceptReply(message.instance_id, message.ballot))

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

    def _commit_instance(self, state: _LeaderState, seq: int, deps: Deps,
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
        self.record_decided(state.command.command_id, kind)
        instance = self.instances[state.instance_id]
        instance.seq = seq
        instance.deps = deps
        instance.status = InstanceStatus.COMMITTED
        self._unexecuted_committed.add(state.instance_id)
        self.retransmit.resolve(("lead", state.instance_id))
        self.broadcast(Commit(state.instance_id, state.command, seq, deps),
                       include_self=False)
        self._try_execute()

    @handles(Commit)
    def _on_commit(self, src: int, message: Commit) -> None:
        """Replica side of commit: record final attributes and try to execute."""
        instance = self.instances.get(message.instance_id)
        if instance is None:
            instance = Instance(message.instance_id, message.command, message.seq,
                                message.deps, InstanceStatus.COMMITTED,
                                Ballot.initial(message.instance_id[0]))
            self._record_instance(instance)
        else:
            if instance.status is InstanceStatus.EXECUTED:
                return
            if instance.command is not message.command:  # final, a recovery's no-op too
                self._reindex(message.instance_id, instance.command, message.command)
                instance.command = message.command
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
        executed = self._executed
        progress = True
        while progress and pending:
            progress = False
            for instance_id in list(pending):
                if instance_id in executed:
                    pending.discard(instance_id)
                    continue
                component_order = self._execution_order(instance_id)
                if component_order is None:
                    continue
                for ready_id in component_order:
                    ready = self.instances[ready_id]
                    if ready_id in executed:
                        continue
                    executed[ready_id] = None
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

        Two cases of a committed root are answered without building the walk,
        with the count and the CPU charge of the one node the walk would
        visit, so the virtual clock cannot tell them apart from it:

        * every dependency is executed: the walk would visit the root, skip
          every dependency and pop a one-member component;
        * the first unexecuted dependency (``deps`` is ascending) is unknown
          or not committed: the walk would visit the root, descend into that
          dependency first and stop there, blocked.  (A root among its own
          dependencies is committed, so it is never that blocker.)

        One pass over ``deps`` answers both: it stops at the first unexecuted
        dependency, or runs out when there is none.

        CPU charges are ``CostModel.dependency_cost`` of the visited count,
        inlined; a zero charge is still made.
        """
        instances = self.instances
        executed = self._executed
        per_node_ms = self.cost_model.per_dependency_ms
        instance = instances.get(root)
        if instance is not None and instance.status is InstanceStatus.COMMITTED:
            first_id = next(filterfalse(executed.__contains__, instance.deps), None)
            if first_id is None:
                self.stats.graph_nodes_visited += 1
                self.consume_cpu(per_node_ms)
                return [root]
            first = instances.get(first_id)
            if first is None or first.status in (InstanceStatus.PRE_ACCEPTED,
                                                 InstanceStatus.ACCEPTED):
                self.stats.graph_nodes_visited += 1
                self.consume_cpu(per_node_ms)
                return None
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
                    self.consume_cpu(per_node_ms * visited_count)
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
        self.consume_cpu(per_node_ms * visited_count)
        return order

    # recovery ---------------------------------------------------------------

    def on_suspect(self, peer: int) -> None:
        """Recover instances led by a suspected replica via explicit prepare."""
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
        elif local is not None and local.status in (InstanceStatus.COMMITTED,
                                                    InstanceStatus.EXECUTED):
            # Committed here while the prepare gathered its quorum: final.
            self._adopt_commit(message.instance_id, local.command, local.seq, local.deps)
        elif accepted or pre_accepted or (local is not None and local.command is not None):
            source = (accepted or pre_accepted)
            if source:
                command = source[0].command
                seq = max(r.seq for r in source)
                deps = _union(*[r.deps for r in source])
            else:
                command = local.command
                seq = local.seq
                deps = local.deps
            state = _LeaderState(instance_id=message.instance_id, command=command,
                                 phase="accept", seq=seq, deps=deps, original_seq=seq,
                                 original_deps=deps, ballot=recovery.ballot,
                                 votes=QuorumTracker(self.quorums.classic, extra_votes=1),
                                 went_slow=True)
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
            self._adopt_commit(message.instance_id, None, 0, ())

    def _adopt_commit(self, instance_id: InstanceId, command: Optional[Command], seq: int,
                      deps: Deps) -> None:
        """Record and re-broadcast a commit learned during recovery."""
        instance = self.instances.get(instance_id)
        if instance is None:
            instance = Instance(instance_id=instance_id, command=command, seq=seq,
                                deps=deps, status=InstanceStatus.COMMITTED,
                                ballot=Ballot.initial(instance_id[0]))
            self._record_instance(instance)
        else:
            if instance.command is not command:  # final, a no-op too
                self._reindex(instance_id, instance.command, command)
                instance.command = command
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
