"""Discrete-event simulation substrate for geo-replicated protocols.

This package provides everything the consensus protocols need to run as if
they were deployed across wide-area sites, but inside a single deterministic
process:

* :class:`repro.sim.simulator.Simulator` -- the event loop (virtual time in
  milliseconds).
* :class:`repro.sim.network.Network` -- message passing with per-pair
  latencies, jitter, message loss and partitions.
* :class:`repro.sim.node.Node` -- the process abstraction protocols subclass:
  timers, message handlers, a serial CPU model, crash/restart.
* :mod:`repro.sim.topology` -- latency matrices, including the five Amazon
  EC2 sites used in the paper's evaluation.
* :mod:`repro.sim.failures` -- crash injection and an eventually-accurate
  failure detector.
"""
