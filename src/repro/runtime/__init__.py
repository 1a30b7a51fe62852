"""Protocol-runtime kernel shared by every replica implementation.

The :mod:`repro.runtime` package is the common substrate the five protocols
(CAESAR, EPaxos, M2Paxos, Mencius, Multi-Paxos) run on:

* :mod:`repro.runtime.codec` — composable field codecs producing a compact,
  deterministic byte encoding for every wire value;
* :mod:`repro.runtime.registry` — the declarative message registry: each
  slotted message type is registered once with per-field codecs, which gives
  every protocol exact-type dispatch and byte-accurate wire accounting;
* :mod:`repro.runtime.fields` — shared field codecs for the consensus value
  types (commands, ballots, logical timestamps);
* :mod:`repro.runtime.kernel` — :class:`~repro.runtime.kernel.ProtocolKernel`,
  the replica base class providing declarative message dispatch
  (:func:`~repro.runtime.kernel.handles`), quorum trackers, ballot registers
  and failure-detector scaffolding;
* :mod:`repro.runtime.transport` — the :class:`~repro.runtime.transport.Transport`
  interface decoupling replicas from the simulated network, with the
  simulator-backed transport (including transport-level batching) as the
  first backend;
* :mod:`repro.runtime.stats` — the unified per-replica
  :class:`~repro.runtime.stats.ProtocolStats` record.

Adding a new protocol means: declare its messages with
:func:`~repro.runtime.registry.register_message` and give each a row in
:data:`~repro.runtime.registry.TYPE_IDS`, subclass ``ProtocolKernel``,
mark handlers with ``@handles(MessageType)``, and add the class to the
protocol table — the kernel supplies dispatch, stats, quorum tracking, timers,
transport and failure detection.  See README.md for a worked example.
"""
