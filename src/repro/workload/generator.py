"""Conflict-controlled and skewed command generation.

:class:`ConflictWorkload` mirrors the paper's benchmark: "When the clients
issue conflicting commands, the key is picked from a shared pool of 100 keys
with a certain probability depending on the experiment.  As a result, by
categorizing a workload with 10% of conflicting commands, we refer to the
fact that 10% of the accessed keys belong to the shared pool."

:class:`ZipfWorkload` adds the skewed (hot-key) access pattern the sharding
study needs: keys ranked by popularity with Zipf exponent ``s``, so a few hot
keys absorb most of the traffic and the shards that own them see most of the
conflicts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

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


@dataclass
class ZipfWorkloadConfig:
    """Parameters of the zipfian (skewed) workload.

    Every client draws keys from one shared ranked key space: key rank ``r``
    (0-based) is chosen with probability proportional to ``1 / (r + 1) ** s``.
    With ``s = 0`` the distribution is uniform over the key space; larger
    ``s`` concentrates traffic on the low ranks.

    Attributes:
        s: Zipf exponent (>= 0).
        key_space: number of distinct keys (ranks ``0 .. key_space - 1``).
        payload_size: nominal command size in bytes.
        write_fraction: fraction of commands that are writes.
    """

    s: float = 1.0
    key_space: int = 1000
    payload_size: int = 15
    write_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("zipf exponent s must be >= 0")
        if self.key_space <= 0:
            raise ValueError("key_space must be positive")


#: Cached cumulative distributions keyed on ``(key_space, s)``: building the
#: CDF is O(key_space) and every client of a run shares the same one.
_ZIPF_CDF_CACHE: Dict[Tuple[int, float], List[float]] = {}


def _zipf_cdf(key_space: int, s: float) -> List[float]:
    cached = _ZIPF_CDF_CACHE.get((key_space, s))
    if cached is None:
        weights = [1.0 / (rank + 1) ** s for rank in range(key_space)]
        total = sum(weights)
        cdf: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            cdf.append(running / total)
        cached = _ZIPF_CDF_CACHE[(key_space, s)] = cdf
    return cached


class ZipfWorkload:
    """Generates zipf-distributed commands for one client.

    Keys are named ``zipf-<rank>`` so the rank (and hence hotness) of any
    generated key can be recovered from its name.  The interface matches
    :class:`ConflictWorkload` (``next_command``), so clients accept either.
    """

    def __init__(self, client_id: int, origin: int, config: ZipfWorkloadConfig,
                 rng: DeterministicRandom) -> None:
        self.client_id = client_id
        self.origin = origin
        self.config = config
        self._rng = rng
        self._cdf = _zipf_cdf(config.key_space, config.s)
        self._sequence = 0
        self.generated = 0

    def next_command(self) -> Command:
        """Generate the client's next command."""
        sequence = self._sequence
        self._sequence += 1
        self.generated += 1
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        rank = min(rank, self.config.key_space - 1)
        if self._rng.random() < self.config.write_fraction:
            operation = "put"
            value = f"v{self.client_id}.{sequence}"
        else:
            operation = "get"
            value = None
        return Command(command_id=(self.client_id, sequence), key=f"zipf-{rank}",
                       operation=operation, value=value, origin=self.origin,
                       payload_size=self.config.payload_size)


#: Either workload configuration; :func:`build_workload` dispatches on type.
WorkloadSpec = Union[WorkloadConfig, ZipfWorkloadConfig]


def build_workload(client_id: int, origin: int, config: WorkloadSpec,
                   rng: DeterministicRandom):
    """Instantiate the workload matching the given configuration type."""
    if isinstance(config, ZipfWorkloadConfig):
        return ZipfWorkload(client_id=client_id, origin=origin, config=config, rng=rng)
    if isinstance(config, WorkloadConfig):
        return ConflictWorkload(client_id=client_id, origin=origin, config=config, rng=rng)
    raise TypeError(f"unsupported workload config: {type(config).__name__}")
