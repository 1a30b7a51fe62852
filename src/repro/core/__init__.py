"""CAESAR: the paper's primary contribution.

The protocol is split across focused modules:

* :mod:`repro.core.messages` -- wire messages (FASTPROPOSE, SLOWPROPOSE,
  RETRY, STABLE, RECOVERY and their replies).
* :mod:`repro.core.history` -- the per-node command history ``H_i``.
* :mod:`repro.core.predecessors` -- predecessor computation and the wait
  condition (Sections IV-A and V-B).
* :mod:`repro.core.delivery` -- stable-command delivery with loop breaking.
* :mod:`repro.core.recovery` -- the ballot-based recovery phase (Section V-E).
* :mod:`repro.core.caesar` -- the replica tying everything together.
"""
