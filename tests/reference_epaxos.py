"""EPaxos' attribute computation and execution check as they were before PR 21.

:class:`ReferenceEPaxosReplica` is an :class:`EPaxosReplica` with the three
methods the optimisation rewrote put back verbatim: the conflict index is one
set of instance ids per key, ``_interfering_instances`` scans it and asks
:meth:`Command.conflicts_with` about every instance on the key, and
``_execution_order`` runs the full Tarjan walk for every root, including a
committed root whose dependencies are all executed.

The differential test (``tests/test_epaxos_differential.py``) feeds both
classes the same instance streams and dependency graphs and asserts identical
dependency sets, execution orders, ``graph_nodes_visited`` and charged CPU —
the modelled cost is part of the figures, so it is part of the contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.baselines.epaxos import EPaxosReplica, Instance, InstanceId, InstanceStatus
from repro.consensus.command import Command


class ReferenceEPaxosReplica(EPaxosReplica):
    """The per-instance conflict loop and the unconditional graph walk."""

    def _interfering_instances(self, command: Command, exclude: InstanceId) -> Set[InstanceId]:
        result: Set[InstanceId] = set()
        for instance_id in self._conflict_index.get(command.key, ()):  # same key
            if instance_id == exclude:
                continue
            instance = self.instances[instance_id]
            if instance.command is not None and instance.command.conflicts_with(command):
                result.add(instance_id)
        return result

    def _record_instance(self, instance: Instance) -> None:
        self.instances[instance.instance_id] = instance
        if instance.command is not None:
            self._conflict_index.setdefault(instance.command.key, set()).add(instance.instance_id)
            self._command_instance.setdefault(instance.command.command_id, instance.instance_id)

    def _execution_order(self, root: InstanceId) -> Optional[List[InstanceId]]:
        order: List[InstanceId] = []
        index: Dict[InstanceId, int] = {}
        lowlink: Dict[InstanceId, int] = {}
        on_stack: Set[InstanceId] = set()
        stack: List[InstanceId] = []
        counter = 0
        visited_count = 0
        instances = self.instances
        executed = self._executed

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
