"""Deterministic random number generation for the simulator.

All stochastic behaviour in the simulation (network jitter, message loss,
workload key selection, client think times) flows through a single seeded
generator so that experiments are exactly reproducible.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable


def stable_label(value: object) -> str:
    """Canonical, process-stable string form of one stream-key coordinate.

    Floats go through ``repr`` (shortest round-trip form, identical in every
    CPython process); everything else must already be a primitive with a
    stable ``str``.  Used to key per-cell RNG streams in parameter sweeps,
    where coordinates are mixed strings/numbers.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (str, int)):
        return str(value)
    raise TypeError(f"unstable RNG stream label: {value!r} ({type(value).__name__})")


def derive_seed(base_seed: int, labels: Iterable[object]) -> int:
    """Derive a child seed from ``base_seed`` and a tuple of coordinates.

    The derivation must be identical in every interpreter process (sweep
    workers re-derive cell streams independently), so it uses CRC32 over the
    canonicalized coordinates rather than the per-process salted ``hash()``.
    Coordinates are joined with an ASCII unit separator so that composite
    keys cannot collide by concatenation (``("a", "bc")`` vs ``("ab", "c")``).
    """
    path = "\x1f".join(stable_label(label) for label in labels)
    return zlib.crc32(f"{base_seed}/{path}".encode()) & 0x7FFFFFFF


class DeterministicRandom:
    """A thin, purpose-named wrapper around :class:`random.Random`.

    Having a dedicated type makes it obvious in signatures that a component
    draws randomness from the simulation-owned stream rather than the global
    interpreter state.

    The sampling methods — ``uniform(low, high)``, ``expovariate(rate)``,
    ``random()``, ``randint(low, high)``, ``choice(seq)`` and
    ``shuffle(seq)`` — are bound directly from the underlying
    :class:`random.Random` at construction time: hot paths pay a single
    bound-method call with no wrapper frame, at the cost of the methods not
    being overridable per subclass.  The simulated network's per-message
    jitter draw reads :attr:`generator` itself.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        #: the underlying :class:`random.Random` every sampler draws from.
        self.generator = random.Random(seed)
        self.uniform = self.generator.uniform
        self.expovariate = self.generator.expovariate
        self.random = self.generator.random
        self.randint = self.generator.randint
        self.choice = self.generator.choice
        self.shuffle = self.generator.shuffle

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent stream for a named sub-component.

        Deriving per-component streams keeps the draw sequences of unrelated
        components (e.g. network jitter vs. workload keys) independent, so
        adding draws in one place does not perturb the other.

        The derived seed must be identical in every interpreter process, so
        it is computed with CRC32 rather than ``hash()`` (string hashing is
        salted per process, which would make runs irreproducible).
        """
        return DeterministicRandom(derive_seed(self._seed, (label,)))

    def fork_cell(self, coordinates: Iterable[object]) -> "DeterministicRandom":
        """Derive the stream for one cell of a parameter sweep.

        ``coordinates`` is the cell's key — e.g. ``("fig9", "caesar", 0.1)``
        — canonicalized coordinate by coordinate, so a sweep cell receives
        the same stream whether it runs serially, in a worker process, or
        alone, and independent cells never share draws.
        """
        return DeterministicRandom(derive_seed(self._seed, coordinates))
