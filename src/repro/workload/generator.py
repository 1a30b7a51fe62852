"""Conflict-controlled command generation.

:class:`ConflictWorkload` mirrors the paper's benchmark: "When the clients
issue conflicting commands, the key is picked from a shared pool of 100 keys
with a certain probability depending on the experiment.  As a result, by
categorizing a workload with 10% of conflicting commands, we refer to the
fact that 10% of the accessed keys belong to the shared pool."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.command import Command
from repro.sim.random import DeterministicRandom


#: Keys in each client's private pool; keys from different clients' private
#: pools never collide.  Keeping the pool small lets ownership-based protocols
#: (M2Paxos) amortize their per-key acquisition cost, as in the paper's
#: steady-state runs.
PRIVATE_POOL_SIZE = 20

#: Fraction of commands that are writes (the paper's benchmark only issues
#: updates).  Every command draws against it, so the key draws do not depend on
#: its value.
WRITE_FRACTION = 1.0


@dataclass
class WorkloadConfig:
    """Parameters of the conflict-controlled workload.

    Attributes:
        conflict_rate: probability that a command's key comes from the shared
            pool (0.0 – 1.0), i.e. the paper's "percentage of conflicting
            commands".
        shared_pool_size: number of keys in the shared pool (paper: 100).
    """

    conflict_rate: float = 0.0
    shared_pool_size: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be within [0, 1]")
        if self.shared_pool_size <= 0:
            raise ValueError("the shared key pool must be non-empty")


def check_load(clients: int, conflict_rate: float, duration_ms: Optional[float] = None,
               warmup_ms: float = 0.0, rate: Optional[float] = None) -> None:
    """Refuse a client load no run can measure (a ``ValueError`` naming it).

    The checks every config that describes clients shares: ``rate`` is an
    open-loop injection rate (``None`` for closed loop), ``duration_ms`` the
    measured window (``None`` when the config has none).
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not 0.0 <= conflict_rate <= 1.0:
        raise ValueError(f"conflict_rate must be within [0, 1], got {conflict_rate:g}")
    if duration_ms is not None and duration_ms <= 0:
        raise ValueError(f"duration_ms must be > 0, got {duration_ms:g}")
    if warmup_ms < 0:
        raise ValueError(f"warmup_ms must be >= 0, got {warmup_ms:g}")
    if rate is not None and rate <= 0:
        raise ValueError(f"open-loop rate must be > 0, got {rate:g}")


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

    def next_command(self) -> Command:
        """Generate the client's next command."""
        sequence = self._sequence
        self._sequence += 1
        self.generated += 1
        if self._rng.random() < self.config.conflict_rate:
            key = f"shared-{self._rng.randint(0, self.config.shared_pool_size - 1)}"
        else:
            key = f"private-{self.client_id}-{self._rng.randint(0, PRIVATE_POOL_SIZE - 1)}"
        if self._rng.random() < WRITE_FRACTION:
            operation = "put"
            value = f"v{self.client_id}.{sequence}"
        else:
            operation = "get"
            value = None
        return Command((self.client_id, sequence), key, operation, value, self.origin)
