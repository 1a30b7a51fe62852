"""Configuration knobs for the CAESAR replica."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CaesarConfig:
    """Tunable parameters of a CAESAR replica.

    Attributes:
        fast_proposal_timeout_ms: how long a command leader waits for a fast
            quorum of FASTPROPOSE replies before falling back to the slow
            proposal phase with a classic quorum (Section V-D).
        wait_condition_enabled: when ``False`` an acceptor immediately rejects
            a proposal that would otherwise have to wait (ablation of the
            paper's key mechanism; see ``benchmarks/test_ablation_wait.py``).
        recovery_enabled: whether replicas react to failure-detector suspicions.
        heartbeat_every_ms: failure-detector heartbeat period.
        suspect_after_ms: failure-detector silence threshold.
    """

    fast_proposal_timeout_ms: float = 1500.0
    wait_condition_enabled: bool = True
    recovery_enabled: bool = True
    heartbeat_every_ms: float = 100.0
    suspect_after_ms: float = 600.0
