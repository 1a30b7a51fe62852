"""Pluggable admission control at the replica submit path.

Past the saturation knee an open-loop workload grows the replica's inflight
set without bound, and every queueing model says the same thing happens to
latency.  Admission control bounds that queue: a policy inspects each client
submission *before* the protocol sees it and either admits it or sheds it
with an immediate rejection, trading a little goodput for a bounded tail.

The policies are substrate-neutral — the same objects guard
:meth:`repro.consensus.interface.ConsensusReplica.submit` on the simulator
and :meth:`repro.net.replica.ReplicaServer._submit` over TCP — because they
only ever see ``(command_id, now)`` pairs:

* :class:`NoAdmission` — admit everything; the counting baseline.
* :class:`InflightLimit` — reject when the replica already has
  ``max_inflight`` commands admitted but not yet executed (classic
  bounded-queue backpressure).
* :class:`QueueDeadline` — shed arrivals while the *oldest* inflight
  command has been queued longer than ``deadline_ms``: once the head of the
  queue has already blown the deadline, a newly enqueued command is doomed
  to miss it too, so rejecting it early is strictly kinder than serving it
  late.

Policies are configured by spec string (``none``, ``inflight:64``,
``deadline:250``) so they travel through CLI flags, ``ServeConfig`` and the
multiprocess replica launcher unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: ``(client_id, sequence)`` — mirrors :data:`repro.consensus.command.CommandId`
#: without importing the consensus layer into the runtime.
CommandKey = Tuple[int, int]


@dataclass
class AdmissionStats:
    """Counters one policy accumulates over a run."""

    admitted: int = 0
    rejected: int = 0
    #: rejections attributed to the inflight bound
    rejected_inflight: int = 0
    #: rejections attributed to queue-deadline shedding
    shed_deadline: int = 0
    #: highest simultaneous inflight count observed
    max_inflight: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly snapshot (stats endpoints, overload load points)."""
        return {"admitted": self.admitted, "rejected": self.rejected,
                "rejected_inflight": self.rejected_inflight,
                "shed_deadline": self.shed_deadline,
                "max_inflight": self.max_inflight}


class AdmissionPolicy:
    """Base class: tracks the inflight set and the per-policy counters.

    Subclasses override :meth:`_check` to veto a submission; the bookkeeping
    (inflight tracking, counters) is shared.  ``try_admit`` returns ``None``
    to admit or a short reason string for the rejection, and ``release``
    must be called when an admitted command finishes (executes at the
    proposer) — unknown ids are ignored, so callers may release on every
    execution without filtering.
    """

    #: spec name, overridden by subclasses.
    name = "abstract"

    def __init__(self) -> None:
        self.stats = AdmissionStats()
        #: admission time per inflight command, insertion-ordered — the
        #: first entry is always the oldest admitted command still pending.
        self._inflight: "OrderedDict[CommandKey, float]" = OrderedDict()

    @property
    def inflight(self) -> int:
        """Commands admitted here and not yet released."""
        return len(self._inflight)

    def oldest_age_ms(self, now: float) -> float:
        """Age of the oldest inflight command (0 when the queue is empty)."""
        if not self._inflight:
            return 0.0
        return now - next(iter(self._inflight.values()))

    def try_admit(self, command_id: CommandKey, now: float) -> Optional[str]:
        """Admit or reject one submission; returns a rejection reason or ``None``."""
        reason = self._check(now)
        if reason is not None:
            self.stats.rejected += 1
            return reason
        self.stats.admitted += 1
        self._inflight[command_id] = now
        if len(self._inflight) > self.stats.max_inflight:
            self.stats.max_inflight = len(self._inflight)
        return None

    def release(self, command_id: CommandKey, now: float) -> None:
        """Mark an admitted command finished (no-op for unknown ids)."""
        self._inflight.pop(command_id, None)

    def _check(self, now: float) -> Optional[str]:
        """Subclass hook: return a rejection reason, or ``None`` to admit."""
        raise NotImplementedError

    def describe(self) -> str:
        """The spec string that would rebuild this policy."""
        return self.name


class NoAdmission(AdmissionPolicy):
    """Admit everything; exists so baselines still count inflight/admitted."""

    name = "none"

    def _check(self, now: float) -> Optional[str]:
        return None


class InflightLimit(AdmissionPolicy):
    """Reject submissions once ``max_inflight`` commands are outstanding."""

    name = "inflight"

    def __init__(self, max_inflight: int = 64) -> None:
        super().__init__()
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.limit = max_inflight

    def _check(self, now: float) -> Optional[str]:
        if len(self._inflight) >= self.limit:
            self.stats.rejected_inflight += 1
            return f"inflight limit {self.limit} reached"
        return None

    def describe(self) -> str:
        return f"inflight:{self.limit}"


class QueueDeadline(AdmissionPolicy):
    """Shed arrivals while the oldest queued command exceeds ``deadline_ms``."""

    name = "deadline"

    def __init__(self, deadline_ms: float = 500.0) -> None:
        super().__init__()
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        self.deadline_ms = deadline_ms

    def _check(self, now: float) -> Optional[str]:
        if self._inflight and self.oldest_age_ms(now) > self.deadline_ms:
            self.stats.shed_deadline += 1
            return f"queue older than {self.deadline_ms:.0f}ms deadline"
        return None

    def describe(self) -> str:
        return f"deadline:{self.deadline_ms:g}"


#: Registered policy constructors, keyed by spec name.
POLICIES = {
    NoAdmission.name: NoAdmission,
    InflightLimit.name: InflightLimit,
    QueueDeadline.name: QueueDeadline,
}


def admission_policy(spec: Optional[str]) -> Optional[AdmissionPolicy]:
    """Build a policy from its spec string.

    ``None`` and ``""`` mean "no admission hook at all" (zero overhead on
    the submit path); ``"none"`` installs the counting no-op baseline;
    ``"inflight:K"`` and ``"deadline:MS"`` build the bounded policies with
    their parameter (``inflight`` / ``deadline`` alone use the defaults).
    """
    if spec is None or spec == "":
        return None
    name, _, parameter = spec.partition(":")
    name = name.strip().lower()
    if name not in POLICIES:
        raise ValueError(f"unknown admission policy {spec!r}; "
                         f"known: {sorted(POLICIES)}")
    if name == NoAdmission.name:
        if parameter:
            raise ValueError(f"admission policy 'none' takes no parameter, got {spec!r}")
        return NoAdmission()
    if not parameter:
        return POLICIES[name]()
    try:
        if name == InflightLimit.name:
            return InflightLimit(max_inflight=int(parameter))
        return QueueDeadline(deadline_ms=float(parameter))
    except ValueError as exc:
        raise ValueError(f"bad admission policy parameter in {spec!r}: {exc}") from None


@dataclass
class AdmissionSnapshot:
    """Aggregated admission counters across a cluster's replicas."""

    policy: str = ""
    stats: AdmissionStats = field(default_factory=AdmissionStats)

    def as_dict(self) -> Dict[str, object]:
        return {"policy": self.policy, **self.stats.as_dict()}


def aggregate_admission(policies) -> Optional[AdmissionSnapshot]:
    """Sum the counters of several replicas' policies (``None`` if none set)."""
    present = [policy for policy in policies if policy is not None]
    if not present:
        return None
    snapshot = AdmissionSnapshot(policy=present[0].describe())
    for policy in present:
        snapshot.stats.admitted += policy.stats.admitted
        snapshot.stats.rejected += policy.stats.rejected
        snapshot.stats.rejected_inflight += policy.stats.rejected_inflight
        snapshot.stats.shed_deadline += policy.stats.shed_deadline
        snapshot.stats.max_inflight = max(snapshot.stats.max_inflight,
                                          policy.stats.max_inflight)
    return snapshot
