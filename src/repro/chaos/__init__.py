"""Chaos engineering for the consensus stack.

The package adds adversity beyond the scheduled crash of Figure 12:

* :mod:`repro.chaos.faults` — the link-fault data plane consulted by every
  :class:`~repro.runtime.transport.SimulatorTransport` through its fault
  filter seam (partitions, drops, duplication, delay spikes);
* :mod:`repro.chaos.nemesis` — the deterministic control plane: timed fault
  schedules (:class:`~repro.chaos.nemesis.NemesisPlan`), the named schedule
  library, and generative random schedules;
* :mod:`repro.chaos.history` — the client-side invocation/response tape;
* :mod:`repro.chaos.checker` — the per-key linearizability checker that
  judges taped histories against the key-value store's sequential spec.

Everything is seeded through the simulator's deterministic RNG, so a chaos
run replays exactly from ``(protocol, schedule, seed)``.
"""
