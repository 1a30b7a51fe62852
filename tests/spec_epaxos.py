"""EPaxos as its paper states it: the executable spec.

A direct, unoptimised transcription of EPaxos (Moraru, Andersen and
Kaminsky, *There Is More Consensus in Egalitarian Parliaments*, SOSP 2013):
Figure 2's PreAccept, the command leader's fast-path test, the Paxos-Accept
round and Commit; Figure 3's Explicit Prepare; and Section 4.6's execution
algorithm.  Step numbers are the paper's pseudocode lines as recalled (the
paper's text is not in the repository), so every citation below is marked
``recalled``.  ``tests/test_epaxos_differential.py`` checks the product
against it.

``cmds_R`` is a dict of plain rows ``<cmd, seq, deps, status, ballot>`` keyed
by instance id, and every question is a scan of those rows.  No per-key
read/write index, no cached sort, no executed-root shortcut: a dependency
set is a scan for interfering rows, "executed" is a row's status, and
execution is a plain recursive Tarjan from each committed instance.

The dependency rule is the pseudocode's (lines 3 and 7, ``recalled``):
``deps`` is **every** instance in ``cmds_R`` that interferes with the
command, on the same key with at least one of the two a write.  The paper's
implementation keeps, per key, only the highest interfering instance of each
replica (``recalled``), which is enough because interference on one key is
transitive; the product uses the pseudocode's rule too, and which of the two
the figures should run is ROADMAP item 1's decision.

:class:`SpecEPaxosReplica` takes one thing from the product: the runtime
kernel (send, broadcast, timers, retransmission, the failure detector, the
CPU charge, stats, decision records).  It also uses the product's
vocabulary: the EPaxos messages, ``InstanceId`` and ``InstanceStatus``.
``tests/test_import_graph.py`` holds it to that.  A row's ``deps`` is a
frozenset; a message carries the same ids as a strictly ascending tuple, the
form its wire codec takes, so :func:`on_wire` writes one and ``frozenset``
reads one.

Rules the pseudocode leaves open, kept here because the product keeps them:

* a replica ignores a PreAccept or an Accept below the ballot of its row, and
  one for a committed or executed row; a Commit for an executed row is
  ignored;
* the fast quorum is ``F + floor((F + 1) / 2)`` replicas counting the leader
  (``N = 2F + 1``); the leader decides as soon as that many have pre-accepted,
  fast if every reply carries its own ``seq`` and ``deps``;
* a catch-up request names the uncommitted dependencies of the waiting
  instances, each instance's in increasing id order, and at most 32 of them;
* the order in which a replica tries its committed instances for execution
  is open in the paper; the spec keeps their ids in a set and tries them in
  the order Python iterates it, the product's.  Executing one instance can
  shorten the walk of the next, and every walk is charged, so the order is
  part of the modelled cost;
* a walk visits a node's dependencies in increasing id order, and a
  component executes in (``seq``, id) order;
* every attribute computation and every graph walk charges
  ``dependency_cost(size)`` of CPU: the cost model, not the paper;
* a leader's PreAccept and Accept rounds are resent until decided (the
  kernel's retransmission); a stuck execution asks peers for the missing
  Commits (catch-up).

Where the product's Explicit Prepare is simpler than Figure 3, the spec
states the product's rule, so that the end-to-end runs can be compared:

1. *Who is asked.*  Prepare goes to the others, and the recovering
   replica's own row counts as a vote (line 26 sends to all, self
   included).  The row is read when the quorum is in: after the committed
   replies, and again when no reply knows the command.
2. *Which replies.*  All the replies of the quorum count, not only those of
   the highest ballot (line 27).
3. *What is accepted.*  A committed reply is committed again (lines 28-29);
   otherwise the accepted replies, or failing those the pre-accepted ones,
   go to the Paxos-Accept phase with the union of their ``deps`` and the
   largest ``seq`` (lines 30-35 have no union: one accepted reply, or
   ``floor(N/2)`` identical default-ballot pre-accepts, else phase 1 again
   without the fast path); with no reply knowing the command, the
   replica's own row goes to the Accept phase.
4. *A no-op.*  When nobody knows the command, a no-op is committed without an
   Accept round (line 37 runs phase 1 for it).
5. *Stale prepares.*  A Prepare below a row's ballot gets no answer (lines
   40-41 send a NACK), and a Prepare for an instance unknown here is
   answered without recording its ballot.
6. *When.*  A replica recovers a suspected replica's unfinished instances
   50 ms after suspecting it, plus 50 ms per replica of lower id than its
   own other than the suspect; the recovery's Accept round is not resent.

Where the spec and the product differ: **a committed row is final.**  When
a Commit reaches the recovering replica before its prepare quorum does, the
spec finds its own row committed (rule 1) and commits it again (line 29).
The product reads its own row only when no reply knows the command, so on a
quorum of pre-accepted or accepted replies it runs the Accept phase and
rewrites its committed row ACCEPTED.  ROADMAP item 1 carries the fix; the
differential shows the defect as an expected failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.baselines.epaxos import (
    Accept,
    AcceptReply,
    Commit,
    InstanceId,
    InstanceStatus,
    PreAccept,
    PreAcceptReply,
    Prepare,
    PrepareReply,
)
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.interface import DecisionKind
from repro.runtime.kernel import ProtocolKernel, QuorumTracker, handles

PRE_ACCEPTED = InstanceStatus.PRE_ACCEPTED
ACCEPTED = InstanceStatus.ACCEPTED
COMMITTED = InstanceStatus.COMMITTED
EXECUTED = InstanceStatus.EXECUTED
#: Rule 6 above: the grace period between suspecting a replica and recovering
#: its instances, once per replica of lower id still counted (the product's).
RECOVERY_DELAY_MS = 50.0
#: What a catch-up request names at most (the product's).
CATCHUP_WANT_LIMIT = 32


def on_wire(deps: FrozenSet[InstanceId]) -> tuple:
    """A dependency set as a message carries it: its ids in ascending order."""
    return tuple(sorted(deps))


@dataclass
class Row:
    """One entry ``cmds_R[L][i]`` (Section 4.3, ``recalled``)."""

    command: Optional[Command]
    seq: int
    deps: FrozenSet[InstanceId]
    status: InstanceStatus
    ballot: Ballot


@dataclass
class LeaderRound:
    """A round this replica leads for one instance: its attributes and votes."""

    command: Command
    phase: str  # "preaccept" | "accept" | "done"
    seq: int
    deps: FrozenSet[InstanceId]
    ballot: Ballot
    votes: QuorumTracker


@dataclass
class PrepareRound:
    """An Explicit Prepare this replica runs: its ballot and the replies."""

    ballot: Ballot
    votes: QuorumTracker


class Blocked(Exception):
    """A walk reached an instance that is not committed here."""


def fast_quorum_size(n: int) -> int:
    """Section 4.3 (``recalled``): ``F + floor((F + 1) / 2)``, the leader included."""
    f = (n - 1) // 2
    return f + (f + 1) // 2


class SpecEPaxosReplica(ProtocolKernel):
    """An EPaxos replica, command leader and acceptor, as the paper states it."""

    protocol_name = "epaxos"

    def __init__(self, node_id: int, sim, network, quorums, state_machine,
                 cost_model=None) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.rows: Dict[InstanceId, Row] = {}
        self.next_instance = 0
        self.rounds: Dict[InstanceId, LeaderRound] = {}
        self.prepares: Dict[InstanceId, PrepareRound] = {}
        #: The committed instances not yet executed (see the module docstring).
        self.waiting: Set[InstanceId] = set()
        self.fast_quorum = fast_quorum_size(quorums.n)

    # ------------------------------------------------------- attributes

    def interfering(self, command: Command, exclude: InstanceId) -> Set[InstanceId]:
        """Lines 3 and 7 (``recalled``): every instance in ``cmds_R`` whose command
        interferes with ``command``, ``exclude`` (its own instance) left out."""
        return {instance_id for instance_id, row in self.rows.items()
                if instance_id != exclude and row.command is not None
                and row.command.conflicts_with(command)}

    def next_seq(self, interfering: Set[InstanceId]) -> int:
        """Lines 2 and 6 (``recalled``): 1 + the largest ``seq`` among them."""
        return 1 + max((self.rows[instance_id].seq for instance_id in interfering), default=0)

    # ----------------------------------------------------- phase 1

    def propose(self, command: Command) -> None:
        """Lines 1-5 (``recalled``): a new instance, its attributes, PreAccept."""
        instance_id = (self.node_id, self.next_instance)
        self.next_instance += 1
        interfering = self.interfering(command, instance_id)
        deps = frozenset(interfering)
        seq = self.next_seq(interfering)
        self.consume_cpu(self.cost_model.dependency_cost(len(deps)))
        ballot = Ballot.initial(self.node_id)
        self.rows[instance_id] = Row(command, seq, deps, PRE_ACCEPTED, ballot)
        state = LeaderRound(command, "preaccept", seq, deps, ballot,
                            QuorumTracker(self.fast_quorum, extra_votes=1))
        self.rounds[instance_id] = state
        message = PreAccept(instance_id=instance_id, command=command, seq=seq,
                            deps=on_wire(deps), ballot=ballot)
        self.broadcast(message, include_self=False)
        self.retransmit.track(("lead", instance_id), message, tracker=state.votes,
                              done=lambda s=state: s.phase == "done")

    @handles(PreAccept)
    def _on_pre_accept(self, src: int, message: PreAccept) -> None:
        """Lines 6-9 (``recalled``): add what this replica knows, pre-accept, reply."""
        instance_id = message.instance_id
        row = self.rows.get(instance_id)
        if row is not None and (row.status in (COMMITTED, EXECUTED)
                                or row.ballot > message.ballot):
            return
        interfering = self.interfering(message.command, instance_id)
        proposed = frozenset(message.deps)
        deps = proposed | interfering
        seq = max(message.seq, self.next_seq(interfering))
        self.consume_cpu(self.cost_model.dependency_cost(len(deps)))
        self.rows[instance_id] = Row(message.command, seq, deps, PRE_ACCEPTED, message.ballot)
        self.send(src, PreAcceptReply(instance_id=instance_id, seq=seq, deps=on_wire(deps),
                                      ballot=message.ballot,
                                      changed=deps != proposed or seq != message.seq))

    @handles(PreAcceptReply)
    def _on_pre_accept_reply(self, src: int, message: PreAcceptReply) -> None:
        """Lines 10-15 (``recalled``): commit if the fast quorum agreed with the
        leader's ``seq`` and ``deps``; else accept their union and maximum."""
        state = self.rounds.get(message.instance_id)
        if state is None or state.phase != "preaccept" or state.ballot != message.ballot:
            return
        if not state.votes.vote(src, message):
            return
        replies = list(state.votes.payloads())
        if all(frozenset(reply.deps) == state.deps and reply.seq == state.seq
               for reply in replies):
            self._commit(message.instance_id, state, fast=True)
            return
        state.deps = state.deps.union(*[reply.deps for reply in replies])
        state.seq = max([state.seq] + [reply.seq for reply in replies])
        state.phase = "accept"
        state.votes = QuorumTracker(self.quorums.classic, extra_votes=1)
        row = self.rows[message.instance_id]
        row.seq, row.deps, row.status = state.seq, state.deps, ACCEPTED
        self.retransmit.track(("lead", message.instance_id),
                              self._send_accept(message.instance_id, state),
                              tracker=state.votes, done=lambda s=state: s.phase == "done")

    # ----------------------------------------------------- phase 2

    def _send_accept(self, instance_id: InstanceId, state: LeaderRound) -> Accept:
        """Line 17 (``recalled``): Accept to the others; line 16's row is written."""
        message = Accept(instance_id=instance_id, command=state.command, seq=state.seq,
                         deps=on_wire(state.deps), ballot=state.ballot)
        self.broadcast(message, include_self=False)
        return message

    @handles(Accept)
    def _on_accept(self, src: int, message: Accept) -> None:
        """Lines 18-19 (``recalled``): accept the leader's attributes, reply."""
        row = self.rows.get(message.instance_id)
        if row is not None and (row.ballot > message.ballot
                                or row.status in (COMMITTED, EXECUTED)):
            return
        self.rows[message.instance_id] = Row(message.command, message.seq,
                                             frozenset(message.deps), ACCEPTED, message.ballot)
        self.send(src, AcceptReply(instance_id=message.instance_id, ballot=message.ballot))

    @handles(AcceptReply)
    def _on_accept_reply(self, src: int, message: AcceptReply) -> None:
        """Line 20 (``recalled``): a classic quorum of AcceptOKs commits."""
        state = self.rounds.get(message.instance_id)
        if state is None or state.phase != "accept" or state.ballot != message.ballot:
            return
        if state.votes.vote(src, message):
            self._commit(message.instance_id, state, fast=False)

    # ----------------------------------------------------- commit

    def _commit(self, instance_id: InstanceId, state: LeaderRound, fast: bool) -> None:
        """Lines 21-23 (``recalled``): the row committed, the client told, Commit to
        the others."""
        state.phase = "done"
        del self.rounds[instance_id]
        if fast:
            self.stats.fast_decisions += 1
        else:
            self.stats.slow_decisions += 1
        self.record_decided(state.command.command_id,
                            DecisionKind.FAST if fast else DecisionKind.SLOW)
        row = self.rows[instance_id]
        row.seq, row.deps, row.status = state.seq, state.deps, COMMITTED
        self.waiting.add(instance_id)
        self.retransmit.resolve(("lead", instance_id))
        self.broadcast(Commit(instance_id=instance_id, command=state.command, seq=state.seq,
                              deps=on_wire(state.deps)), include_self=False)
        self.try_execute()

    @handles(Commit)
    def _on_commit(self, src: int, message: Commit) -> None:
        """Line 24 (``recalled``): the row committed; a round this replica leads
        for the instance is over."""
        instance_id = message.instance_id
        row = self.rows.get(instance_id)
        if row is None:
            self.rows[instance_id] = Row(message.command, message.seq, frozenset(message.deps),
                                         COMMITTED, Ballot.initial(instance_id[0]))
        elif row.status is EXECUTED:
            return
        else:
            row.command = message.command
            row.seq, row.deps, row.status = message.seq, frozenset(message.deps), COMMITTED
        self.waiting.add(instance_id)
        self.rounds.pop(instance_id, None)
        self.retransmit.resolve(("lead", instance_id))
        self.try_execute()

    # ----------------------------------------------------- execution

    def try_execute(self) -> None:
        """Section 4.6 (``recalled``): execute every committed instance whose
        dependency graph is committed here, repeated while one executes."""
        progress = True
        while progress and self.waiting:
            progress = False
            for instance_id in list(self.waiting):
                if self.rows[instance_id].status is EXECUTED:
                    self.waiting.discard(instance_id)
                    continue
                order = self.execution_order(instance_id)
                if order is None:
                    continue
                for ready in order:
                    row = self.rows[ready]
                    row.status = EXECUTED
                    self.waiting.discard(ready)
                    if row.command is not None:
                        self.execute_command(row.command)
                progress = True
        self.note_progress_gap()

    def execution_order(self, root: InstanceId) -> Optional[List[InstanceId]]:
        """Section 4.6, steps 1-4 (``recalled``): the graph of ``root`` and its
        dependencies not yet executed, its strongly connected components by
        Tarjan in inverse topological order, each sorted by ``seq``; ``None``
        when the graph reaches an instance not committed here.  Every node the
        walk visits is charged."""
        index: Dict[InstanceId, int] = {}
        lowlink: Dict[InstanceId, int] = {}
        stack: List[InstanceId] = []
        order: List[InstanceId] = []

        def connect(node: InstanceId) -> None:
            row = self.rows.get(node)
            if row is None or row.status in (PRE_ACCEPTED, ACCEPTED):
                raise Blocked
            index[node] = lowlink[node] = len(index)
            stack.append(node)
            for dep in sorted(row.deps):
                known = self.rows.get(dep)
                if known is not None and known.status is EXECUTED:
                    continue
                if dep not in index:
                    connect(dep)
                    lowlink[node] = min(lowlink[node], lowlink[dep])
                elif dep in stack:
                    lowlink[node] = min(lowlink[node], index[dep])
            if lowlink[node] == index[node]:
                component = stack[stack.index(node):]
                del stack[stack.index(node):]
                order.extend(sorted(component, key=lambda member: (self.rows[member].seq,
                                                                   member)))

        try:
            connect(root)
        except Blocked:
            order = None
        self.stats.graph_nodes_visited += len(index)
        self.consume_cpu(self.cost_model.dependency_cost(len(index)))
        return order

    # ----------------------------------------------------- Explicit Prepare

    def on_suspect(self, peer: int) -> None:
        """Rule 6: recover the suspect's instances after a staggered delay."""
        rank = sum(1 for node_id in self.network.node_ids
                   if node_id < self.node_id and node_id != peer)
        self.set_timer(RECOVERY_DELAY_MS * (1 + rank), self._recover_led_by, peer)

    def _recover_led_by(self, peer: int) -> None:
        """Lines 25-26 (``recalled``): for each instance of ``peer`` not committed
        here, the next ballot of this replica, and Prepare to the others."""
        for instance_id, row in list(self.rows.items()):
            if instance_id[0] != peer or row.status in (COMMITTED, EXECUTED):
                continue
            self.stats.recoveries += 1
            row.ballot = row.ballot.next_for(self.node_id)
            self.prepares[instance_id] = PrepareRound(
                row.ballot, QuorumTracker(self.quorums.classic, extra_votes=1))
            self.broadcast(Prepare(instance_id=instance_id, ballot=row.ballot),
                           include_self=False)

    @handles(Prepare)
    def _on_prepare(self, src: int, message: Prepare) -> None:
        """Lines 38-39 (``recalled``): join the ballot, reply with the row."""
        row = self.rows.get(message.instance_id)
        if row is None:
            self.send(src, PrepareReply(instance_id=message.instance_id,
                                        ballot=message.ballot, known=False))
            return
        if row.ballot > message.ballot:
            return
        row.ballot = message.ballot
        self.send(src, PrepareReply(instance_id=message.instance_id, ballot=message.ballot,
                                    known=True, command=row.command, seq=row.seq,
                                    deps=on_wire(row.deps), status=row.status.value))

    @handles(PrepareReply)
    def _on_prepare_reply(self, src: int, message: PrepareReply) -> None:
        """Lines 27-37 (``recalled``), as rules 1-4 state them."""
        instance_id = message.instance_id
        prepare = self.prepares.get(instance_id)
        if prepare is None or prepare.ballot != message.ballot:
            return
        if not prepare.votes.vote(src, message):
            return
        del self.prepares[instance_id]
        replies = [reply for reply in prepare.votes.payloads() if reply.known]
        committed = [reply for reply in replies
                     if reply.status in (COMMITTED.value, EXECUTED.value)]
        row = self.rows.get(instance_id)
        if committed:
            self._commit_recovered(instance_id, committed[0].command, committed[0].seq,
                                   frozenset(committed[0].deps))
            return
        if row is not None and row.status in (COMMITTED, EXECUTED):
            self._commit_recovered(instance_id, row.command, row.seq, row.deps)
            return
        source = ([reply for reply in replies if reply.status == ACCEPTED.value]
                  or [reply for reply in replies if reply.status == PRE_ACCEPTED.value])
        if source:
            command = source[0].command
            seq = max(reply.seq for reply in source)
            deps = frozenset().union(*[reply.deps for reply in source])
        elif row is not None and row.command is not None:
            command, seq, deps = row.command, row.seq, row.deps
        else:
            self._commit_recovered(instance_id, None, 0, frozenset())
            return
        state = self.rounds[instance_id] = LeaderRound(
            command, "accept", seq, deps, prepare.ballot,
            QuorumTracker(self.quorums.classic, extra_votes=1))
        self.rows[instance_id] = Row(command, seq, deps, ACCEPTED, prepare.ballot)
        self._send_accept(instance_id, state)

    def _commit_recovered(self, instance_id: InstanceId, command: Optional[Command], seq: int,
                          deps: FrozenSet[InstanceId]) -> None:
        """Line 29 / 37 (``recalled``): commit what recovery found, tell the others."""
        row = self.rows.get(instance_id)
        if row is None:
            row = self.rows[instance_id] = Row(command, seq, deps, COMMITTED,
                                               Ballot.initial(instance_id[0]))
        elif row.status is not EXECUTED:
            row.command = command
            row.seq, row.deps, row.status = seq, deps, COMMITTED
        if row.status is COMMITTED:
            self.waiting.add(instance_id)
        self.rounds.pop(instance_id, None)
        self.broadcast(Commit(instance_id=instance_id, command=command, seq=seq,
                              deps=on_wire(deps)), include_self=False)
        self.try_execute()

    # ----------------------------------------------------- catch-up

    def catchup_need(self):
        """The dependencies of waiting instances not committed here, by name."""
        want: Set[str] = set()
        for instance_id in self.waiting:
            for dep in sorted(self.rows[instance_id].deps):
                row = self.rows.get(dep)
                if row is None or row.status in (PRE_ACCEPTED, ACCEPTED):
                    want.add(f"{dep[0]}:{dep[1]}")
                    if len(want) >= CATCHUP_WANT_LIMIT:
                        return (0, tuple(sorted(want)))
        return (0, tuple(sorted(want))) if want else None

    def catchup_supply(self, cursor, want):
        """Commit again for each requested instance committed here."""
        supplies = []
        for token in want:
            leader, _, number = token.partition(":")
            try:
                row = self.rows.get((int(leader), int(number)))
            except ValueError:
                continue
            if row is not None and row.status in (COMMITTED, EXECUTED):
                supplies.append(Commit(instance_id=(int(leader), int(number)),
                                       command=row.command, seq=row.seq,
                                       deps=on_wire(row.deps)))
        return supplies
