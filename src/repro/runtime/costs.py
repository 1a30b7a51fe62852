"""CPU cost model for message processing.

The paper's throughput results (Figure 9) are shaped not only by message
delays but also by the CPU work each protocol performs per command: EPaxos
pays for analysing its dependency graph before execution, CAESAR pays a much
smaller cost for scanning predecessor sets, Multi-Paxos concentrates all work
on the leader.  The :class:`CostModel` gives every simulated node a serial
CPU whose per-message costs can be tuned per message type, which is what
makes the simulated systems saturate at different throughputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CostModel:
    """Per-message-type CPU costs, in milliseconds of simulated CPU time.

    Attributes:
        default_cost_ms: cost charged for any message type not listed in
            ``per_type_ms``.
        per_type_ms: overrides keyed by the message class name.
        per_dependency_ms: extra cost charged per element when a protocol
            explicitly accounts for dependency/predecessor processing (see
            :meth:`dependency_cost`).
        client_request_ms: cost of accepting a client request.
        self_message_factor: multiplier applied to messages a node sends to
            itself (no real serialization/deserialization happens for those).
    """

    default_cost_ms: float = 0.015
    per_type_ms: Dict[str, float] = field(default_factory=dict)
    per_dependency_ms: float = 0.002
    client_request_ms: float = 0.01
    self_message_factor: float = 0.4

    def message_cost(self, message: object, local: bool = False) -> float:
        """CPU time needed to process ``message`` on the receiving node.

        Args:
            message: the message being processed.
            local: ``True`` when the sender is the receiving node itself.
        """
        type_name = type(message).__name__
        cost = self.per_type_ms.get(type_name, self.default_cost_ms)
        if local:
            cost *= self.self_message_factor
        return cost

    def dependency_cost(self, n_dependencies: int) -> float:
        """CPU time for scanning/analysing ``n_dependencies`` dependencies."""
        if n_dependencies <= 0:
            return 0.0
        return self.per_dependency_ms * n_dependencies

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy of this model with every cost multiplied by ``factor``."""
        return CostModel(
            default_cost_ms=self.default_cost_ms * factor,
            per_type_ms={k: v * factor for k, v in self.per_type_ms.items()},
            per_dependency_ms=self.per_dependency_ms * factor,
            client_request_ms=self.client_request_ms * factor,
            self_message_factor=self.self_message_factor,
        )


def zero_cost_model() -> CostModel:
    """A cost model where CPU time is free (pure network-latency studies)."""
    return CostModel(default_cost_ms=0.0, per_type_ms={}, per_dependency_ms=0.0, client_request_ms=0.0)


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
