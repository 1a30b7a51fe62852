"""Baseline consensus protocols the paper compares CAESAR against.

* :class:`~repro.baselines.epaxos.EPaxosReplica` — dependency-tracking
  multi-leader Generalized Consensus with a fast path (Moraru et al., SOSP'13).
* :class:`~repro.baselines.multipaxos.MultiPaxosReplica` — the classic
  single-designated-leader protocol.
* :class:`~repro.baselines.mencius.MenciusReplica` — multi-leader with
  pre-assigned rotating slots (Mao et al., OSDI'08).
* :class:`~repro.baselines.m2paxos.M2PaxosReplica` — ownership-based
  multi-leader Generalized Consensus (Peluso et al., DSN'16).

All four run on the same simulated substrate and expose the same
:class:`~repro.consensus.interface.ConsensusReplica` interface as CAESAR, so
every experiment can swap protocols by name.
"""
