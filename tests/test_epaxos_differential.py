"""Differential tests: EPaxos against its spec, ``tests/spec_epaxos.py``.

:class:`~repro.baselines.epaxos.EPaxosReplica` and :class:`SpecEPaxosReplica`
(the paper's pseudocode over plain rows and scans) are fed the same inputs:

* random instance streams — mixed ``put`` / ``get``, command-less (no-op)
  instances, ids recorded again with another command, lookups with and
  without ``exclude`` — must give equal dependency sets;
* random dependency graphs — roots with all-executed, partly executed,
  uncommitted and unknown dependencies, 2- and 3-cycles — must give the same
  execution order, the same ``graph_nodes_visited`` and the same sequence of
  ``consume_cpu`` charges, per root and over a whole round of execution;
* written-out message scenarios — the fast and slow paths, an acceptor and
  Explicit Prepare — must give the same sends, rows, rounds and records after
  every message (the late-recovery defect is an expected failure);
* small cells run end to end, the spec registered as a protocol, must give
  the same latency samples, decisions, execution orders and stats.

The charges are modelled CPU: they move the virtual clock and so every EPaxos
figure cell, which is why "same answer, cheaper to charge" is not enough.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.epaxos import (
    Accept,
    AcceptReply,
    Commit,
    EPaxosReplica,
    Instance,
    InstanceId,
    InstanceStatus,
    PreAccept,
    PreAcceptReply,
    PrepareReply,
)
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from tests.conftest import ignore, uniform_topology
from tests.spec_epaxos import Row, SpecEPaxosReplica
from tests.test_caesar_differential import CRASH_CELL, _cell, _Peer, end_to_end
from tests.test_sim_engine_differential import pending_times

REPLICAS = 5
KEYS = ("alpha", "beta")
OPERATIONS = ("put", "get")
IDS = [(leader, number) for leader in range(3) for number in range(4)]
PRE_ACCEPTED = InstanceStatus.PRE_ACCEPTED
ACCEPTED = InstanceStatus.ACCEPTED
COMMITTED = InstanceStatus.COMMITTED
EXECUTED = InstanceStatus.EXECUTED


class Probe:
    """Replica 0, the product's or the spec's, alone on an idle simulator with
    four silent peers, its sends and CPU charges recorded."""

    def __init__(self, spec: bool) -> None:
        self.spec = spec
        self.sim = Simulator(seed=1)
        network = Network(self.sim, uniform_topology(REPLICAS, rtt_ms=10.0), NetworkConfig())
        replica_class = SpecEPaxosReplica if spec else EPaxosReplica
        self.replica = replica_class(0, self.sim, network, QuorumSystem.for_cluster(REPLICAS),
                                     KeyValueStore())
        for node_id in range(1, REPLICAS):
            network.register(_Peer(node_id))
        self.charges: List[float] = []
        self.sent: List[Tuple[object, object]] = []
        consume_cpu = self.replica.consume_cpu

        def recording_consume_cpu(milliseconds: float) -> None:
            self.charges.append(milliseconds)
            consume_cpu(milliseconds)

        self.replica.consume_cpu = recording_consume_cpu
        self.replica.send = lambda dst, message: self.sent.append((dst, message))
        self.replica.broadcast = (
            lambda message, include_self=True: self.sent.append(("all", message)))

    # The two replicas' names for the same things.

    def record(self, instance_id: InstanceId, command: Optional[Command], seq: int = 1,
               deps: Sequence[InstanceId] = (), status: InstanceStatus = PRE_ACCEPTED) -> None:
        """The row a handler would have written, and the sets that follow it."""
        ballot = Ballot.initial(instance_id[0])
        replica = self.replica
        if self.spec:
            replica.rows[instance_id] = Row(command, seq, frozenset(deps), status, ballot)
            waiting = replica.waiting
        else:
            replica._record_instance(Instance(instance_id, command, seq, tuple(sorted(deps)),
                                              status, ballot))
            waiting = replica._unexecuted_committed
            if status is EXECUTED:
                replica._executed[instance_id] = None
        if status is COMMITTED:
            waiting.add(instance_id)

    def interfering(self, command: Command, exclude: InstanceId) -> set:
        """The ids as a set; the product's must come strictly ascending."""
        if self.spec:
            return self.replica.interfering(command, exclude)
        ids = self.replica._interfering_instances(command, exclude)
        assert_ascending(ids)
        return set(ids)

    def execution_order(self, root: InstanceId) -> Optional[List[InstanceId]]:
        if self.spec:
            return self.replica.execution_order(root)
        return self.replica._execution_order(root)

    def try_execute(self) -> None:
        (self.replica.try_execute if self.spec else self.replica._try_execute)()

    def observed(self) -> tuple:
        """Everything a peer, a client, a figure or the modelled cost could tell the
        two replicas apart by, the sends aside."""
        replica = self.replica
        if self.spec:
            rows, rounds, prepares = replica.rows, replica.rounds, replica.prepares
            done = {iid for iid, row in rows.items() if row.status is EXECUTED}
            waiting = replica.waiting
        else:
            rows, rounds, prepares = (replica.instances, replica._leader_states,
                                      replica._recoveries)
            done, waiting = replica._executed, replica._unexecuted_committed
        decisions = {command_id: (decision.kind, decision.decided_at, decision.executed_at,
                                  decision.propose_ms, decision.retry_ms, decision.deliver_ms)
                     for command_id, decision in replica.decisions.items()}
        resends = [(key, entry.message, entry.tracker.voters(), entry.deadline, entry.attempts)
                   for key, entry in replica.retransmit._entries.items()]
        return (sorted((iid, row.command, row.seq, sorted(row.deps), row.status, row.ballot)
                       for iid, row in rows.items()),
                sorted(done), list(waiting),
                {iid: (state.command, state.phase, state.seq, sorted(state.deps), state.ballot,
                       state.votes.threshold, list(state.votes.payloads()))
                 for iid, state in rounds.items()},
                {iid: (state.ballot, list(state.votes.payloads()))
                 for iid, state in prepares.items()},
                self.charges, dataclasses.asdict(replica.stats), replica.cpu_busy_ms,
                replica.cpu_backlog_ms, executed(self), decisions, resends,
                pending_times(self.sim))


def assert_ascending(ids: Sequence[InstanceId]) -> None:
    """``ids`` is a tuple with each id greater than the one before (so none repeats)."""
    assert isinstance(ids, tuple) and all(a < b for a, b in zip(ids, ids[1:])), ids


def executed(probe: Probe) -> list:
    """The command ids ``probe``'s replica executed, in order."""
    return [command.command_id for command in probe.replica.execution_log]


def agree(product: Probe, spec: Probe, sent_before: int, label: object) -> None:
    mine, theirs = product.sent[sent_before:], spec.sent[sent_before:]
    assert mine == theirs, ("spec disagrees", label, mine, theirs)
    for position, (ours, its) in enumerate(zip(product.observed(), spec.observed())):
        assert ours == its, ("spec disagrees", label, position, ours, its)


# ------------------------------------------------------------ conflict lookup

#: One step: (is a lookup, id slot, key, operation, command-less, exclude slot).
#: The exclude slot ranges past ``IDS`` so that some lookups exclude nothing.
stream_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(0, len(IDS) - 1), st.sampled_from(KEYS),
              st.sampled_from(OPERATIONS), st.booleans(), st.integers(0, len(IDS) + 3)),
    min_size=1, max_size=60)
#: Every stream ends with one lookup per key and operation, excluding nothing.
FINAL_LOOKUPS = [(True, 0, key, operation, False, len(IDS)) for key in KEYS
                 for operation in OPERATIONS]


def drive_stream(steps) -> None:
    product, spec = Probe(spec=False), Probe(spec=True)
    for number, (lookup, slot, key, operation, no_op, exclude_slot) in enumerate(
            [*steps, *FINAL_LOOKUPS]):
        command = Command(command_id=(9, number), key=key, operation=operation)
        if lookup:
            exclude = IDS[exclude_slot] if exclude_slot < len(IDS) else (7, exclude_slot)
            assert (product.interfering(command, exclude)
                    == spec.interfering(command, exclude)), ("spec disagrees", number)
        else:
            for probe in (product, spec):
                probe.record(IDS[slot], None if no_op else command)


class TestConflictLookupDifferential:
    @settings(max_examples=300, deadline=None, database=None)
    @given(steps=stream_strategy)
    def test_random_instance_streams_agree(self, steps):
        drive_stream(steps)

    def test_reads_commute_and_exclude_is_removed(self):
        steps = [
            (False, 0, "alpha", "put", False, 0),
            (False, 1, "alpha", "get", False, 0),
            (False, 2, "alpha", "get", False, 0),
            (False, 3, "alpha", "put", True, 0),   # a no-op: never interferes
            (True, 0, "alpha", "get", False, 0),   # a read excluding the only write
            (True, 0, "alpha", "get", False, 1),   # a read excluding a read
            (True, 0, "alpha", "put", False, 2),   # a write sees writes and reads
            (True, 0, "beta", "put", False, 0),    # nothing on this key
        ]
        drive_stream(steps)

    def test_lookup_result_is_a_private_copy(self):
        """The answer is a tuple of its own: what the index records later is not in it."""
        probe = Probe(spec=False)
        probe.record(IDS[0], Command(command_id=(1, 0), key="alpha", operation="put"))
        lookups = [Command(command_id=(2, 0), key="alpha", operation=operation)
                   for operation in OPERATIONS]
        answers = [probe.replica._interfering_instances(lookup, (7, 0)) for lookup in lookups]
        probe.record(IDS[1], Command(command_id=(1, 1), key="alpha", operation="put"))
        probe.record(IDS[2], Command(command_id=(1, 2), key="alpha", operation="get"))
        assert answers == [(IDS[0],), (IDS[0],)]

    def test_an_id_recorded_again_moves_with_its_command(self):
        steps = [
            (False, 0, "alpha", "put", False, 0),
            (False, 0, "alpha", "get", False, 0),  # same id, now a read
            (True, 0, "alpha", "get", False, 99),
            (False, 0, "beta", "put", False, 0),   # same id, another key
            (True, 0, "alpha", "put", False, 99),
            (True, 0, "beta", "get", False, 99),
            (False, 0, "beta", "put", True, 0),    # same id, now command-less
            (True, 0, "beta", "put", False, 99),
        ]
        drive_stream(steps)


# ------------------------------------------------------------ representations

#: One handler-level step: (kind, slot in ``PEER_IDS``, key, operation,
#: dependency mask over ``IDS``).  A PreAccept for an id already recorded
#: re-records it, with the step's command, which is on another key or of
#: another kind more often than not.  Replica 0's proposals take ``(0, n)``,
#: so the messages name the other leaders' ids.
STEP_KINDS = ("propose", "pre_accept", "accept", "commit", "no-op")
THREE_KEYS = (*KEYS, "gamma")
PEER_IDS = [instance_id for instance_id in IDS if instance_id[0] != 0]
handler_steps = st.lists(
    st.tuples(st.sampled_from(STEP_KINDS), st.integers(0, len(PEER_IDS) - 1),
              st.sampled_from(THREE_KEYS), st.sampled_from(OPERATIONS),
              st.integers(0, 2 ** len(IDS) - 1)),
    min_size=1, max_size=40)


def apply_step(probe: Probe, number: int, step) -> None:
    kind, slot, key, operation, mask = step
    replica, instance_id = probe.replica, PEER_IDS[slot]
    command = Command(command_id=(9, number), key=key, operation=operation)
    deps = tuple(other for bit, other in enumerate(IDS) if mask >> bit & 1)
    ballot = Ballot.initial(instance_id[0])
    if kind == "propose":
        replica.propose(command)
    elif kind == "pre_accept":
        replica.handle_message(1, PreAccept(instance_id, command, 1, deps, ballot))
    elif kind == "accept":
        replica.handle_message(1, Accept(instance_id, command, 1, deps, ballot))
    elif kind == "commit":
        replica.handle_message(1, Commit(instance_id, command, 1, deps))
    else:  # what Explicit Prepare commits when no reply knows the command
        replica._adopt_commit(instance_id, None, 0, ())


def check_representation(replica: EPaxosReplica) -> None:
    """The index and every stored dependency set against the instances, read as sets."""
    commands = {instance_id: instance.command
                for instance_id, instance in replica.instances.items()}
    for instance in replica.instances.values():
        assert_ascending(instance.deps)
    for state in replica._leader_states.values():
        assert_ascending(state.deps)
        assert_ascending(state.original_deps)
    indexed = []
    for is_write, index in ((True, replica._writes_on), (False, replica._reads_on)):
        for key, ids in index.items():
            assert isinstance(ids, list)
            assert_ascending(tuple(ids))
            for instance_id in ids:
                command = commands[instance_id]
                assert command is not None
                assert (command.key, command.is_write) == (key, is_write)
            indexed.extend(ids)
    # Every instance with a command is in one list, once; one without is in none.
    assert sorted(indexed) == sorted(instance_id for instance_id, command in commands.items()
                                     if command is not None)
    for key in THREE_KEYS:
        for operation in OPERATIONS:
            lookup = Command(command_id=(2, 0), key=key, operation=operation)
            for exclude in (IDS[0], (7, 7)):
                ids = replica._interfering_instances(lookup, exclude)
                assert_ascending(ids)
                assert set(ids) == {instance_id for instance_id, command in commands.items()
                                    if instance_id != exclude and command is not None
                                    and command.conflicts_with(lookup)}


class TestRepresentations:
    """The sorted-list index, the ascending dependency tuples and the executed
    map, driven through the handlers, against a set-based reading of the
    instances table."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(steps=handler_steps)
    def test_random_handler_sequences_keep_every_representation(self, steps):
        probe = Probe(spec=False)
        for number, step in enumerate(steps):
            apply_step(probe, number, step)
            check_representation(probe.replica)
        executed_ids = probe.replica._executed
        assert all(probe.replica.instances[instance_id].status is EXECUTED
                   for instance_id in executed_ids)

    def test_an_id_re_recorded_on_each_key_and_kind_and_a_no_op(self):
        steps = [("pre_accept", 1, key, operation, 0b1)
                 for key in THREE_KEYS for operation in OPERATIONS]
        steps += [("accept", 1, "beta", "get", 0b101), ("no-op", 3, "alpha", "put", 0),
                  ("pre_accept", 2, "alpha", "put", 0b10)]
        probe = Probe(spec=False)
        for number, step in enumerate(steps):
            apply_step(probe, number, step)
            check_representation(probe.replica)
        replica = probe.replica
        assert replica.instances[PEER_IDS[3]].command is None
        assert replica._reads_on == {"alpha": [], "beta": [PEER_IDS[1]], "gamma": []}
        assert replica._writes_on == {"alpha": [PEER_IDS[2]], "beta": [], "gamma": []}
        assert replica.instances[PEER_IDS[2]].deps == (IDS[1],)

    @pytest.mark.parametrize("learned", ["adopted", "received"])
    def test_a_command_committed_as_a_no_op_is_not_executed(self, learned):
        """A replica outside the Explicit Prepare quorum accepted a ``get``; the
        quorum knew no command and committed a no-op, which is final here too."""
        probe = Probe(spec=False)
        replica, orphan = probe.replica, PEER_IDS[1]
        apply_step(probe, 0, ("accept", 1, "beta", "get", 0))
        if learned == "adopted":
            replica._adopt_commit(orphan, None, 0, ())
        else:
            replica.handle_message(2, Commit(orphan, None, 0, ()))
        check_representation(replica)
        assert replica.instances[orphan].command is None
        assert replica.instances[orphan].status is EXECUTED
        assert replica.commands_executed == 0

    def test_an_acceptor_that_knows_the_same_instances_keeps_the_proposal_s_tuple(self):
        probe = Probe(spec=False)
        probe.record(IDS[0], Command(command_id=(1, 0), key="x", operation="put"))
        deps = (IDS[0],)
        command = Command(command_id=(1, 5), key="x")
        probe.replica.handle_message(1, PreAccept(IDS[5], command, 1, deps, Ballot.initial(1)))
        assert probe.sent[-1][1].deps is deps
        assert probe.replica.instances[IDS[5]].deps is deps


# ------------------------------------------------------------ execution order

#: Per id: (status slot, seq, dependency mask over ``GRAPH_IDS``).  Status slot
#: 0 leaves the id unknown to the replica.
GRAPH_IDS = IDS[:7]
GRAPH_STATUSES = (None, PRE_ACCEPTED, ACCEPTED, COMMITTED, COMMITTED, EXECUTED, EXECUTED)
graph_strategy = st.lists(
    st.tuples(st.integers(0, len(GRAPH_STATUSES) - 1), st.integers(1, 4),
              st.integers(0, 2 ** len(GRAPH_IDS) - 1)),
    min_size=len(GRAPH_IDS), max_size=len(GRAPH_IDS))

Node = Tuple[Optional[InstanceStatus], int, Sequence[InstanceId]]


def build_graph(spec: bool, nodes: Dict[InstanceId, Node], no_ops=()) -> Probe:
    """A replica that has recorded ``nodes`` the way the handlers would have;
    the ids in ``no_ops`` without a command, as a recovered no-op is."""
    probe = Probe(spec)
    for slot, (instance_id, (status, seq, deps)) in enumerate(sorted(nodes.items())):
        if status is not None:
            command = None if instance_id in no_ops else Command(
                command_id=(5, slot), key=KEYS[slot % 2], operation=OPERATIONS[slot % 3 == 0])
            probe.record(instance_id, command, seq=seq, deps=deps, status=status)
    return probe


def ask_root(nodes: Dict[InstanceId, Node], root: InstanceId,
             no_ops=()) -> Tuple[Optional[List[InstanceId]], Probe]:
    """``root`` asked once on both sides, which must agree: the order, and the
    product's probe."""
    product, spec = build_graph(False, nodes, no_ops), build_graph(True, nodes, no_ops)
    with sorted_for_a_walk() as product.walked:
        order = product.execution_order(root)
    assert order == spec.execution_order(root), ("spec disagrees", root)
    agree(product, spec, 0, root)
    return order, product


@contextlib.contextmanager
def sorted_for_a_walk() -> Iterator[List[InstanceId]]:
    """The ids whose dependencies a Tarjan walk asked for, in the order it asked.

    The walk reads a node's dependencies through ``Instance.deps_sorted``; the
    two shortcuts read ``deps`` directly.  So the root's id in the list tells
    that the product walked, where its charges and counts cannot."""
    asked: List[InstanceId] = []
    deps_sorted = Instance.deps_sorted

    def recording(instance: Instance):
        asked.append(instance.instance_id)
        return deps_sorted(instance)

    Instance.deps_sorted = recording
    try:
        yield asked
    finally:
        Instance.deps_sorted = deps_sorted


def check_graph(nodes: Dict[InstanceId, Node], no_ops=()) -> Probe:
    """Each waiting root in turn, then a whole round of execution, on both sides."""
    roots = sorted(instance_id for instance_id, (status, _, _) in nodes.items()
                   if status is COMMITTED)
    for root in roots:
        ask_root(nodes, root, no_ops)
    product, spec = build_graph(False, nodes, no_ops), build_graph(True, nodes, no_ops)
    product.try_execute()
    spec.try_execute()
    agree(product, spec, 0, "try_execute")
    return product


def graph_from(draw) -> Dict[InstanceId, Node]:
    nodes: Dict[InstanceId, Node] = {}
    for instance_id, (status_slot, seq, mask) in zip(GRAPH_IDS, draw):
        deps = [other for bit, other in enumerate(GRAPH_IDS)
                if mask >> bit & 1 and other != instance_id]
        nodes[instance_id] = (GRAPH_STATUSES[status_slot], seq, deps)
    return nodes


A, B, C, D = IDS[:4]


class TestExecutionOrderDifferential:
    @settings(max_examples=300, deadline=None, database=None)
    @given(draw=graph_strategy)
    def test_random_graphs_agree(self, draw):
        check_graph(graph_from(draw))

    def test_root_with_all_dependencies_executed(self):
        probe = check_graph({A: (EXECUTED, 1, []), B: (EXECUTED, 2, [A]),
                             C: (COMMITTED, 3, [A, B])})
        assert probe.charges == [probe.replica.cost_model.dependency_cost(1)]
        assert probe.replica.stats.graph_nodes_visited == 1
        assert C in probe.replica._executed

    def test_root_without_dependencies(self):
        probe = check_graph({A: (COMMITTED, 1, [])})
        assert probe.replica.stats.graph_nodes_visited == 1

    def test_root_with_partly_executed_dependencies(self):
        probe = check_graph({A: (EXECUTED, 1, []), B: (COMMITTED, 2, [A]),
                             C: (COMMITTED, 3, [A, B])})
        assert executed(probe) == [(5, 1), (5, 2)]

    def test_root_behind_an_uncommitted_dependency_stays_blocked(self):
        for blocker in (PRE_ACCEPTED, ACCEPTED, None):
            probe = check_graph({A: (blocker, 1, []), B: (COMMITTED, 2, [A]),
                                 C: (COMMITTED, 3, [B])})
            assert not probe.replica._executed
            assert probe.replica.stats.graph_nodes_visited > 0  # the walk is charged

    def test_accepted_root_is_not_executable(self):
        """Only a committed root may execute, whatever its dependencies."""
        for spec in (False, True):
            probe = build_graph(spec, {A: (EXECUTED, 1, []), B: (ACCEPTED, 2, [A])})
            assert probe.execution_order(B) is None
            # The walk stops at the root itself: no node visited, a zero charge.
            assert probe.charges == [0.0] and probe.replica.stats.graph_nodes_visited == 0

    def test_two_cycle_executes_by_sequence_number(self):
        probe = check_graph({A: (COMMITTED, 2, [B]), B: (COMMITTED, 1, [A])})
        assert executed(probe) == [(5, 1), (5, 0)]

    def test_three_cycle_with_an_executed_tail(self):
        probe = check_graph({A: (COMMITTED, 3, [B, D]), B: (COMMITTED, 1, [C]),
                             C: (COMMITTED, 2, [A]), D: (EXECUTED, 1, [])})
        assert executed(probe) == [(5, 1), (5, 2), (5, 0)]

    def test_three_cycle_behind_an_uncommitted_instance(self):
        probe = check_graph({A: (COMMITTED, 3, [B]), B: (COMMITTED, 1, [C]),
                             C: (COMMITTED, 2, [A, D]), D: (ACCEPTED, 1, [])})
        assert not probe.replica._executed

    # The walk's two shortcuts and the cases next to them.  ``walked`` names the
    # ids a walk read the dependencies of, so it tells which way the product
    # answered; the spec always walks.

    def test_blocked_at_the_first_unexecuted_dependency_without_a_walk(self):
        for blocker in (PRE_ACCEPTED, ACCEPTED, None):
            nodes = {A: (EXECUTED, 1, []), B: (blocker, 2, []), C: (COMMITTED, 1, []),
                     D: (COMMITTED, 3, [A, B, C])}
            order, probe = ask_root(nodes, D)
            assert order is None
            assert probe.charges == [probe.replica.cost_model.dependency_cost(1)]
            assert probe.replica.stats.graph_nodes_visited == 1
            assert probe.walked == []
            check_graph(nodes)

    def test_a_committed_first_dependency_walks_on_to_a_later_blocker(self):
        nodes = {A: (COMMITTED, 1, []), B: (ACCEPTED, 2, []), C: (COMMITTED, 3, [A, B])}
        order, probe = ask_root(nodes, C)
        assert order is None
        assert probe.charges == [probe.replica.cost_model.dependency_cost(2)]
        assert probe.replica.stats.graph_nodes_visited == 2
        assert probe.walked[0] == C
        assert list(check_graph(nodes).replica._executed) == [A]

    def test_a_no_op_first_dependency_is_walked_through(self):
        for status in (COMMITTED, InstanceStatus.NOOP):
            nodes = {A: (status, 1, []), B: (ACCEPTED, 1, []), C: (COMMITTED, 2, [A]),
                     D: (COMMITTED, 3, [A, B])}
            order, probe = ask_root(nodes, C, no_ops={A})
            assert order == [A, C]
            assert probe.charges == [probe.replica.cost_model.dependency_cost(2)]
            order, blocked = ask_root(nodes, D, no_ops={A})
            assert order is None
            assert blocked.charges == [blocked.replica.cost_model.dependency_cost(2)]
            assert blocked.walked[0] == D
            assert executed(check_graph(nodes, no_ops={A})) == [(5, 2)]

    def test_a_root_among_its_own_dependencies(self):
        cost = Probe(spec=False).replica.cost_model.dependency_cost
        for nodes, expected, visited in (
                ({A: (EXECUTED, 1, []), B: (COMMITTED, 2, [A, B])}, [B], 1),
                ({B: (COMMITTED, 2, [B, C]), C: (ACCEPTED, 1, [])}, None, 1),
                ({B: (COMMITTED, 2, [A, B]), A: (PRE_ACCEPTED, 1, [])}, None, 1),
                ({B: (COMMITTED, 2, [B, C]), C: (COMMITTED, 1, [B])}, [C, B], 2)):
            order, probe = ask_root(nodes, B)
            assert order == expected
            assert probe.charges == [cost(visited)]
            assert probe.replica.stats.graph_nodes_visited == visited
            check_graph(nodes)


# ------------------------------------------------------------ message scenarios


class Pair:
    """The product and the spec as replica 0, acted on in lock step."""

    def __init__(self) -> None:
        self.product, self.spec = Probe(spec=False), Probe(spec=True)
        self.steps = 0

    def act(self, action, label: object) -> None:
        before = len(self.product.sent)
        action(self.product)
        action(self.spec)
        self.steps += 1
        agree(self.product, self.spec, before, (self.steps, label))

    def feed(self, src: int, message: object) -> None:
        self.act(lambda probe: probe.replica.handle_message(src, message), message)


X, Y, Z = (Command(command_id=(client, 0), key="x", value=str(client)) for client in (1, 2, 3))
LED = (0, 0)      # the instance replica 0 leads
FOREIGN = (1, 0)  # an instance replica 1 leads
ORPHAN = (4, 0)   # an instance of replica 4, which crashes


def pre_accept_reply(seq: int = 1, deps=(), changed: bool = False) -> PreAcceptReply:
    return PreAcceptReply(instance_id=LED, seq=seq, deps=tuple(deps),
                          ballot=Ballot.initial(0), changed=changed)


#: The ballot of replica 0's first Explicit Prepare of ``ORPHAN``.
FIRST = Ballot.initial(4).next_for(0)


def suspect_4(pair: Pair) -> None:
    """Replica 0 suspects replica 4 and, after the delay, prepares its instances."""
    pair.act(lambda probe: probe.replica.on_suspect(4), "suspect 4")
    pair.act(lambda probe: probe.sim.run(until=probe.sim.now + 60.0), "the recovery delay")


def recovering() -> Pair:
    """Replica 4 pre-accepted ``Z`` here, then fell silent; replica 0 prepares."""
    pair = Pair()
    pair.feed(4, PreAccept(instance_id=ORPHAN, command=Z, seq=1, deps=(),
                           ballot=Ballot.initial(4)))
    suspect_4(pair)
    return pair


def prepare_reply(status: InstanceStatus, deps=(), ballot: Ballot = FIRST) -> PrepareReply:
    return PrepareReply(instance_id=ORPHAN, ballot=ballot, known=True, command=Z, seq=1,
                        deps=tuple(deps), status=status.value)


class TestScenarios:
    def test_fast_path_on_identical_replies(self):
        pair = Pair()
        pair.act(lambda probe: probe.replica.submit(X, ignore), "submit")
        pair.feed(1, pre_accept_reply())
        pair.feed(2, pre_accept_reply())
        assert pair.product.replica.stats.fast_decisions == 1
        assert pair.product.replica._leader_states == {}

    def test_one_changed_reply_takes_the_slow_path_with_the_union(self):
        pair = Pair()
        pair.act(lambda probe: probe.replica.submit(X, ignore), "submit")
        pair.feed(1, pre_accept_reply(seq=2, deps=[FOREIGN], changed=True))
        pair.feed(2, pre_accept_reply())
        for src in (1, 2):
            pair.feed(src, AcceptReply(instance_id=LED, ballot=Ballot.initial(0)))
        assert pair.product.replica.stats.slow_decisions == 1
        assert pair.product.replica.instances[LED].deps == (FOREIGN,)
        pair.feed(1, Commit(instance_id=FOREIGN, command=Y, seq=1, deps=()))
        assert executed(pair.product) == [Y.command_id, X.command_id]

    def test_a_commit_from_elsewhere_ends_the_local_round(self):
        pair = Pair()
        pair.act(lambda probe: probe.replica.submit(X, ignore), "submit")
        pair.feed(2, Commit(instance_id=LED, command=X, seq=1, deps=()))
        for src in (1, 2):  # the superseded round's replies: no second Commit
            pair.feed(src, pre_accept_reply())
        assert executed(pair.product) == [X.command_id]
        assert pair.product.replica.stats.fast_decisions == 0

    def test_an_acceptor_adds_what_it_knows(self):
        pair = Pair()
        pair.act(lambda probe: probe.replica.submit(X, ignore), "submit")
        pair.feed(1, PreAccept(instance_id=FOREIGN, command=Y, seq=1, deps=(),
                               ballot=Ballot.initial(1)))
        pair.feed(2, PreAccept(instance_id=(2, 0), command=Command(command_id=(4, 0), key="y"),
                               seq=1, deps=(), ballot=Ballot.initial(2)))
        assert pair.product.sent[-2][1].deps == (LED,)

    def test_explicit_prepare_accepts_the_union_and_forgets_late_replies(self):
        pair = recovering()
        pair.feed(1, prepare_reply(PRE_ACCEPTED))
        pair.feed(2, prepare_reply(PRE_ACCEPTED, deps=[FOREIGN]))
        pair.feed(3, prepare_reply(PRE_ACCEPTED))  # after the quorum: ignored
        for src in (1, 2):
            pair.feed(src, AcceptReply(instance_id=ORPHAN, ballot=FIRST))
        assert pair.product.replica.instances[ORPHAN].deps == (FOREIGN,)
        assert (pair.product.replica._leader_states, pair.product.replica._recoveries) == ({}, {})

    def test_explicit_prepare_commits_a_committed_reply(self):
        pair = recovering()
        pair.feed(1, prepare_reply(COMMITTED))
        pair.feed(2, prepare_reply(PRE_ACCEPTED))
        assert executed(pair.product) == [Z.command_id]

    def test_a_second_prepare_that_finds_a_commit_ends_the_first_accept(self):
        pair = recovering()
        for src in (1, 2):
            pair.feed(src, prepare_reply(PRE_ACCEPTED))
        suspect_4(pair)
        for src in (1, 2):
            pair.feed(src, prepare_reply(COMMITTED, ballot=FIRST.next_for(0)))
        assert (pair.product.replica._leader_states, pair.product.replica._recoveries) == ({}, {})
        assert executed(pair.product) == [Z.command_id]

    def test_a_commit_during_explicit_prepare_is_final(self):
        pair = recovering()
        pair.feed(1, Commit(instance_id=ORPHAN, command=Z, seq=1, deps=()))
        for src in (2, 3):
            pair.feed(src, prepare_reply(PRE_ACCEPTED))


# ------------------------------------------------------------ end to end

#: One hot key, a ten-key and a hundred-key pool, and the crash with recovery.
END_TO_END_CELLS = {
    "pool-1-conflicts-100": _cell(1, 1.0, seed=7),
    "pool-10-conflicts-30": _cell(10, 0.3, seed=7),
    "pool-100-conflicts-30": _cell(100, 0.3, seed=7),
    "crash-node-4": CRASH_CELL,
}


class TestSpecEndToEnd:
    @pytest.mark.parametrize("name", sorted(END_TO_END_CELLS))
    def test_the_spec_as_a_protocol_runs_the_cell_as_the_product_does(self, name):
        samples, decisions, orders, stats = end_to_end(
            "epaxos", SpecEPaxosReplica, {name: END_TO_END_CELLS[name]})[name]
        assert len(samples) >= 40 and all(orders)
        assert sum(s.graph_nodes_visited for s in stats) > 0
        assert (sum(s.recoveries for s in stats) > 0) is (name == "crash-node-4")
