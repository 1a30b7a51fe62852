"""CPU cost model for message processing.

The paper's throughput results (Figure 9) are shaped not only by message
delays but also by the CPU work each protocol performs per command: EPaxos
pays for analysing its dependency graph before execution, CAESAR pays a much
smaller cost for scanning predecessor sets, Multi-Paxos concentrates all work
on the leader.  The :class:`CostModel` gives every simulated node a serial
CPU that charges each message, each dependency a protocol scans and each
client request, which is what makes the simulated systems saturate at
different throughputs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Multiplier on the cost of a message a node sends to itself (no real
#: serialization or deserialization happens for those).
SELF_MESSAGE_FACTOR = 0.4


@dataclass
class CostModel:
    """CPU costs, in milliseconds of simulated CPU time.

    Attributes:
        default_cost_ms: cost charged for processing any one message.
        per_dependency_ms: extra cost charged per element when a protocol
            explicitly accounts for dependency/predecessor processing (see
            :meth:`dependency_cost`).
        client_request_ms: cost of accepting a client request.
    """

    default_cost_ms: float = 0.015
    per_dependency_ms: float = 0.002
    client_request_ms: float = 0.01

    def message_cost(self, local: bool) -> float:
        """CPU time needed to process one message on the receiving node.

        Args:
            local: ``True`` when the sender is the receiving node itself.
        """
        cost = self.default_cost_ms
        if local:
            cost *= SELF_MESSAGE_FACTOR
        return cost

    def dependency_cost(self, n_dependencies: int) -> float:
        """CPU time for scanning/analysing ``n_dependencies`` dependencies."""
        if n_dependencies <= 0:
            return 0.0
        return self.per_dependency_ms * n_dependencies


def zero_cost_model() -> CostModel:
    """A cost model where CPU time is free (pure network-latency studies)."""
    return CostModel(default_cost_ms=0.0, per_dependency_ms=0.0, client_request_ms=0.0)


def throughput_cost_model() -> CostModel:
    """CPU cost model used for throughput-bound experiments.

    Its callers are Figures 8, 9 and 9b, ``repro overload`` and ``repro run
    --throughput``; Figure 10 runs on the default model.

    The absolute costs are scaled up relative to real hardware so the
    simulated systems saturate at a few hundred commands per second, which
    keeps simulation time reasonable while preserving the protocols' relative
    CPU profiles (EPaxos' dependency-graph analysis vs. CAESAR's predecessor
    bookkeeping vs. the single-leader bottleneck of Multi-Paxos).  Absolute
    throughputs are therefore roughly three orders of magnitude below the
    paper's hardware numbers; EXPERIMENTS.md compares shapes, not magnitudes.
    """
    return CostModel(default_cost_ms=0.5, per_dependency_ms=0.03, client_request_ms=0.2)
