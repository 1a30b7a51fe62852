"""Quorum-size arithmetic for classic and fast quorums.

Section III of the paper: a *classic quorum* (CQ) is any set of at least
``floor(N/2) + 1`` nodes; a *fast quorum* (FQ) is any set of at least
``ceil(3N/4)`` nodes.  For the five-node deployment used in the evaluation
this gives CQ = 3 and FQ = 4, which is why the paper notes that CAESAR must
contact one node more than EPaxos to decide fast.

EPaxos uses a different fast-quorum size (``f + floor((f+1)/2)`` additional
replicas beyond the command leader); that value is also computed here so the
baselines share a single source of quorum truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def max_failures(n: int) -> int:
    """Maximum number of crash failures tolerated with ``n`` nodes (minority)."""
    return (n - 1) // 2


def classic_quorum_size(n: int) -> int:
    """Size of a classic (majority) quorum: ``floor(N/2) + 1``."""
    return n // 2 + 1


def fast_quorum_size(n: int) -> int:
    """Size of CAESAR's fast quorum: ``ceil(3N/4)``."""
    return math.ceil(3 * n / 4)


def epaxos_fast_quorum_size(n: int) -> int:
    """EPaxos' optimized fast-path quorum size, *including* the command leader.

    EPaxos needs ``f + floor((f+1)/2)`` replicas counting the command leader
    itself; for N = 5 (f = 2) this is 3 total, one fewer than CAESAR's fast
    quorum — which is why the paper notes CAESAR must contact one extra node.
    """
    f = max_failures(n)
    return max(classic_quorum_size(n) - 1, f + (f + 1) // 2)


@dataclass(frozen=True)
class QuorumSystem:
    """Pre-computed quorum sizes for a cluster of ``n`` nodes.

    Attributes:
        n: cluster size.
        classic: classic-quorum size (majority).
        fast: CAESAR fast-quorum size.
        f: number of tolerated failures.
    """

    n: int
    classic: int
    fast: int
    f: int

    @classmethod
    def for_cluster(cls, n: int) -> "QuorumSystem":
        """Build the quorum system for an ``n``-node cluster."""
        if n < 3:
            raise ValueError("consensus clusters need at least 3 nodes")
        return cls(n=n, classic=classic_quorum_size(n), fast=fast_quorum_size(n), f=max_failures(n))

    @property
    def recovery_majority(self) -> int:
        """``floor(CQ/2) + 1`` — the minimum overlap between a classic and a fast quorum.

        Used by CAESAR's recovery to reconstruct the predecessor whitelist of a
        possibly fast-decided command (Section V-E).
        """
        return self.classic // 2 + 1
