"""Real-network deployment mode: asyncio TCP transport for the protocols.

The :mod:`repro.net` package runs the *same* protocol code the simulator
runs — same kernels, same messages, same retransmission/catch-up layer —
over real sockets:

* :mod:`repro.net.framing` — length-prefixed frames with partial-read
  handling;
* :mod:`repro.net.wire` — the envelope messages (Hello / ClientRequest /
  ClientReply / StatsRequest / StatsReply), registered in the canonical
  codec;
* :mod:`repro.net.clock` — wall-clock implementation of the kernel's
  clock/timer API;
* :mod:`repro.net.transport` — the :class:`AsyncioTransport` backend of the
  Transport contract, with per-peer reconnect/backoff;
* :mod:`repro.net.replica` — one replica behind a TCP listener;
* :mod:`repro.net.client` — TCP clients reusing the workload drivers, and
  the ``repro loadgen`` engine;
* :mod:`repro.net.cluster` — the single-host multiprocess launcher behind
  ``repro serve``;
* :mod:`repro.net.loopback` — in-process localhost clusters + the simulator
  oracle used by the equivalence tests.
"""
