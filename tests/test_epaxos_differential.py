"""Differential test: EPaxos' indexed conflict lookup and execution fast path vs the reference.

Hypothesis drives :class:`~repro.baselines.epaxos.EPaxosReplica` and
``tests/reference_epaxos.py`` (the per-instance conflict loop and the
unconditional Tarjan walk, kept verbatim) through the same inputs:

* random instance streams — mixed ``put`` / ``get``, command-less (no-op)
  instances, ids recorded again with the same or another command, lookups
  with ``exclude`` in and out of the index — must give equal dependency sets;
* random dependency graphs — roots with all-executed, partly executed,
  uncommitted and unknown dependencies, 2- and 3-cycles — must give the same
  execution order, the same ``graph_nodes_visited`` and the same sequence of
  ``consume_cpu`` charges, per root and over a whole ``_try_execute``.

The charges are modelled CPU: they move the virtual clock and so every EPaxos
figure cell, which is why "same answer, cheaper to charge" is not enough.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.baselines.epaxos import EPaxosReplica, Instance, InstanceId, InstanceStatus
from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.store import KeyValueStore
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import uniform_topology
from tests.reference_epaxos import ReferenceEPaxosReplica

KEYS = ("alpha", "beta")
OPERATIONS = ("put", "get")
IDS = [(leader, number) for leader in range(3) for number in range(4)]


class Probe:
    """One replica on its own idle simulator, with its CPU charges recorded."""

    def __init__(self, replica_class) -> None:
        sim = Simulator(seed=1)
        network = Network(sim, uniform_topology(3, rtt_ms=10.0))
        self.replica: EPaxosReplica = replica_class(
            0, sim, network, QuorumSystem.for_cluster(3), KeyValueStore())
        self.charges: List[float] = []
        consume_cpu = self.replica.consume_cpu

        def recording_consume_cpu(milliseconds: float) -> None:
            self.charges.append(milliseconds)
            consume_cpu(milliseconds)

        self.replica.consume_cpu = recording_consume_cpu

    def executed_commands(self) -> List[tuple]:
        return [command.command_id for command in self.replica.execution_log]

    def observed(self) -> tuple:
        """Everything the modelled cost and the execution order show."""
        replica = self.replica
        return (self.charges, replica.stats.graph_nodes_visited, replica.cpu_busy_ms,
                replica.cpu_backlog_ms, self.executed_commands(),
                sorted(replica._executed), sorted(replica._unexecuted_committed))


def record(probe: Probe, instance_id: InstanceId, command: Optional[Command],
           seq: int = 1, deps: Sequence[InstanceId] = (),
           status: InstanceStatus = InstanceStatus.PRE_ACCEPTED) -> None:
    probe.replica._record_instance(Instance(
        instance_id=instance_id, command=command, seq=seq, deps=frozenset(deps),
        status=status, ballot=Ballot.initial(instance_id[0])))


# ------------------------------------------------------------ conflict lookup

#: One step: (is a lookup, id slot, key, operation, command-less, exclude slot).
#: The exclude slot ranges past ``IDS`` so that some lookups exclude nothing.
stream_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(0, len(IDS) - 1), st.sampled_from(KEYS),
              st.sampled_from(OPERATIONS), st.booleans(), st.integers(0, len(IDS) + 3)),
    min_size=1, max_size=60)


def drive_stream(steps) -> None:
    optimized, reference = Probe(EPaxosReplica), Probe(ReferenceEPaxosReplica)
    for number, (lookup, slot, key, operation, no_op, exclude_slot) in enumerate(steps):
        command = Command(command_id=(9, number), key=key, operation=operation)
        if lookup:
            exclude = IDS[exclude_slot] if exclude_slot < len(IDS) else (7, exclude_slot)
            assert (optimized.replica._interfering_instances(command, exclude)
                    == reference.replica._interfering_instances(command, exclude))
        else:
            for probe in (optimized, reference):
                record(probe, IDS[slot], None if no_op else command)
    # A scan of what was recorded is the specification both must meet.
    for key in KEYS:
        for operation in OPERATIONS:
            probe_command = Command(command_id=(8, 0), key=key, operation=operation)
            scanned = {instance_id
                       for instance_id, instance in optimized.replica.instances.items()
                       if instance.command is not None
                       and instance.command.conflicts_with(probe_command)}
            assert optimized.replica._interfering_instances(probe_command, (7, 0)) == scanned
            assert reference.replica._interfering_instances(probe_command, (7, 0)) == scanned


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
        probe = Probe(EPaxosReplica)
        for slot, operation in enumerate(("put", "get", "get")):
            record(probe, IDS[slot], Command(command_id=(1, slot), key="alpha",
                                             operation=operation))
        read = Command(command_id=(2, 0), key="alpha", operation="get")
        write = Command(command_id=(2, 1), key="alpha", operation="put")
        assert probe.replica._interfering_instances(read, (7, 0)) == {IDS[0]}
        assert probe.replica._interfering_instances(read, IDS[0]) == set()
        assert probe.replica._interfering_instances(write, IDS[1]) == {IDS[0], IDS[2]}

    def test_lookup_result_is_a_private_copy(self):
        probe = Probe(EPaxosReplica)
        command = Command(command_id=(1, 0), key="alpha", operation="put")
        record(probe, IDS[0], command)
        for operation in OPERATIONS:
            lookup = Command(command_id=(2, 0), key="alpha", operation=operation)
            probe.replica._interfering_instances(lookup, (7, 0)).clear()
            assert probe.replica._interfering_instances(lookup, (7, 0)) == {IDS[0]}

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


# ------------------------------------------------------------ execution order

#: Per id: (status slot, seq, dependency mask over ``GRAPH_IDS``).  Status slot
#: 0 leaves the id unknown to the replica.
GRAPH_IDS = IDS[:7]
GRAPH_STATUSES = (None, InstanceStatus.PRE_ACCEPTED, InstanceStatus.ACCEPTED,
                  InstanceStatus.COMMITTED, InstanceStatus.COMMITTED,
                  InstanceStatus.EXECUTED, InstanceStatus.EXECUTED)
graph_strategy = st.lists(
    st.tuples(st.integers(0, len(GRAPH_STATUSES) - 1), st.integers(1, 4),
              st.integers(0, 2 ** len(GRAPH_IDS) - 1)),
    min_size=len(GRAPH_IDS), max_size=len(GRAPH_IDS))

Node = Tuple[Optional[InstanceStatus], int, Sequence[InstanceId]]


def build_graph(replica_class, nodes: Dict[InstanceId, Node]) -> Probe:
    """A replica that has recorded ``nodes`` the way the handlers would have."""
    probe = Probe(replica_class)
    replica = probe.replica
    for slot, (instance_id, (status, seq, deps)) in enumerate(sorted(nodes.items())):
        if status is None:
            continue
        command = Command(command_id=(5, slot), key=KEYS[slot % 2],
                          operation=OPERATIONS[slot % 3 == 0])
        record(probe, instance_id, command, seq=seq, deps=deps, status=status)
        if status is InstanceStatus.EXECUTED:
            replica._executed.add(instance_id)
        elif status is InstanceStatus.COMMITTED:
            replica._unexecuted_committed.add(instance_id)
    return probe


def check_graph(nodes: Dict[InstanceId, Node]) -> Probe:
    """Each waiting root in turn, then a whole ``_try_execute``, on both classes."""
    roots = sorted(instance_id for instance_id, (status, _, _) in nodes.items()
                   if status is InstanceStatus.COMMITTED)
    for root in roots:
        optimized = build_graph(EPaxosReplica, nodes)
        reference = build_graph(ReferenceEPaxosReplica, nodes)
        assert (optimized.replica._execution_order(root)
                == reference.replica._execution_order(root)), root
        assert optimized.observed() == reference.observed(), root
    optimized = build_graph(EPaxosReplica, nodes)
    reference = build_graph(ReferenceEPaxosReplica, nodes)
    # Sets of equal ids built by equal insertions iterate alike, so the two
    # make their rounds over the waiting instances in the same order.
    assert list(optimized.replica._unexecuted_committed) \
        == list(reference.replica._unexecuted_committed)
    optimized.replica._try_execute()
    reference.replica._try_execute()
    assert optimized.observed() == reference.observed()
    return optimized


def graph_from(draw) -> Dict[InstanceId, Node]:
    nodes: Dict[InstanceId, Node] = {}
    for instance_id, (status_slot, seq, mask) in zip(GRAPH_IDS, draw):
        deps = [other for bit, other in enumerate(GRAPH_IDS)
                if mask >> bit & 1 and other != instance_id]
        nodes[instance_id] = (GRAPH_STATUSES[status_slot], seq, deps)
    return nodes


COMMITTED = InstanceStatus.COMMITTED
EXECUTED = InstanceStatus.EXECUTED
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
        assert probe.executed_commands() == [(5, 1), (5, 2)]

    def test_root_behind_an_uncommitted_dependency_stays_blocked(self):
        for blocker in (InstanceStatus.PRE_ACCEPTED, InstanceStatus.ACCEPTED, None):
            probe = check_graph({A: (blocker, 1, []), B: (COMMITTED, 2, [A]),
                                 C: (COMMITTED, 3, [B])})
            assert probe.replica._executed == set()
            assert probe.replica.stats.graph_nodes_visited > 0  # the walk is charged

    def test_accepted_root_is_not_executable(self):
        """Only a committed root may take the fast path, whatever its dependencies."""
        for replica_class in (EPaxosReplica, ReferenceEPaxosReplica):
            probe = build_graph(replica_class, {A: (EXECUTED, 1, []),
                                                B: (InstanceStatus.ACCEPTED, 2, [A])})
            assert probe.replica._execution_order(B) is None
            # The walk stops at the root itself: no node visited, a zero charge.
            assert probe.charges == [0.0] and probe.replica.stats.graph_nodes_visited == 0

    def test_two_cycle_executes_by_sequence_number(self):
        probe = check_graph({A: (COMMITTED, 2, [B]), B: (COMMITTED, 1, [A])})
        assert probe.executed_commands() == [(5, 1), (5, 0)]

    def test_three_cycle_with_an_executed_tail(self):
        probe = check_graph({A: (COMMITTED, 3, [B, D]), B: (COMMITTED, 1, [C]),
                             C: (COMMITTED, 2, [A]), D: (EXECUTED, 1, [])})
        assert probe.executed_commands() == [(5, 1), (5, 2), (5, 0)]

    def test_three_cycle_behind_an_uncommitted_instance(self):
        probe = check_graph({A: (COMMITTED, 3, [B]), B: (COMMITTED, 1, [C]),
                             C: (COMMITTED, 2, [A, D]), D: (InstanceStatus.ACCEPTED, 1, [])})
        assert probe.replica._executed == set()
