"""Conflict-controlled command generation.

:class:`ConflictWorkload` mirrors the paper's benchmark: "When the clients
issue conflicting commands, the key is picked from a shared pool of 100 keys
with a certain probability depending on the experiment.  As a result, by
categorizing a workload with 10% of conflicting commands, we refer to the
fact that 10% of the accessed keys belong to the shared pool."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.command import Command
from repro.sim.random import DeterministicRandom


@dataclass
class WorkloadConfig:
    """Parameters of the conflict-controlled workload.

    Attributes:
        conflict_rate: probability that a command's key comes from the shared
            pool (0.0 – 1.0), i.e. the paper's "percentage of conflicting
            commands".
        shared_pool_size: number of keys in the shared pool (paper: 100).
        private_pool_size: number of keys in each client's private pool; keys
            from different clients' private pools never collide.  Keeping the
            pool small lets ownership-based protocols (M2Paxos) amortize their
            per-key acquisition cost, as in the paper's steady-state runs.
        payload_size: nominal command size in bytes (paper: 15).
        write_fraction: fraction of commands that are writes (the paper's
            benchmark only issues updates, hence the default of 1.0).
    """

    conflict_rate: float = 0.0
    shared_pool_size: int = 100
    private_pool_size: int = 20
    payload_size: int = 15
    write_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be within [0, 1]")
        if self.shared_pool_size <= 0 or self.private_pool_size <= 0:
            raise ValueError("key pools must be non-empty")


class ConflictWorkload:
    """Generates commands for one client with a controlled conflict rate.

    Args:
        client_id: globally unique client identifier; becomes the first
            element of every generated command id.
        origin: replica index the client is co-located with.
        config: workload parameters.
        rng: deterministic random stream for key/operation choices.
    """

    def __init__(self, client_id: int, origin: int, config: WorkloadConfig,
                 rng: DeterministicRandom) -> None:
        self.client_id = client_id
        self.origin = origin
        self.config = config
        self._rng = rng
        self._sequence = 0
        self.generated = 0
        self.conflicting_generated = 0

    def next_command(self) -> Command:
        """Generate the client's next command."""
        sequence = self._sequence
        self._sequence += 1
        self.generated += 1
        if self._rng.random() < self.config.conflict_rate:
            self.conflicting_generated += 1
            key = f"shared-{self._rng.randint(0, self.config.shared_pool_size - 1)}"
        else:
            key = (f"private-{self.client_id}-"
                   f"{self._rng.randint(0, self.config.private_pool_size - 1)}")
        if self._rng.random() < self.config.write_fraction:
            operation = "put"
            value = f"v{self.client_id}.{sequence}"
        else:
            operation = "get"
            value = None
        return Command(command_id=(self.client_id, sequence), key=key, operation=operation,
                       value=value, origin=self.origin, payload_size=self.config.payload_size)

    @property
    def observed_conflict_rate(self) -> float:
        """Fraction of generated commands whose key came from the shared pool."""
        if self.generated == 0:
            return 0.0
        return self.conflicting_generated / self.generated
