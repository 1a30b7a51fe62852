"""The nemesis: deterministic, scheduled composition of fault primitives.

A :class:`NemesisPlan` is a named, immutable set of timed faults; the
:class:`Nemesis` installs a plan against a running cluster by sharing one
:class:`~repro.chaos.faults.LinkFaults` data plane across every replica's
transport and scheduling the apply/revert callbacks on the simulator.  Plans
come from three places:

* the **named schedule library** (:data:`NEMESIS_SCHEDULES`) — the fixed
  vocabulary the conformance matrix and the CLI speak;
* :func:`random_plan` — generative schedules drawn from a deterministic
  stream (fork it with :meth:`~repro.sim.random.DeterministicRandom.fork_cell`
  so a random campaign replays from its seed);
* hand-built plans in tests.

Fault primitives and their liveness footprint:

* ``PartitionFault`` / ``AsymmetricPartitionFault`` hold messages and
  release them on heal (a stalled TCP connection); every protocol in the
  repository tolerates them.
* ``LossFault`` drops messages probabilistically on every link.  The
  runtime's retransmission (:mod:`repro.runtime.kernel`) re-sends lost
  quorum traffic after the heal; its catch-up pull is what keeps Mencius and
  Multi-Paxos live here, and no other protocol needs it.  A passing cell
  does not mean every live replica executed every command (ROADMAP items
  19 and 22).
* ``DuplicationFault`` (every link), ``DelaySpikeFault``, ``ClockSkewFault``
  are loss-free: safe for every protocol.
* ``CrashFault`` reuses the :class:`~repro.sim.failures.CrashInjector`
  machinery from Figure 12; messages addressed to (or in flight towards) a
  crashed node are lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.faults import LinkFaults, cross_links, symmetric_links
from repro.sim.failures import ScheduledCrash
from repro.sim.random import DeterministicRandom

NodeGroup = Tuple[int, ...]


@dataclass(frozen=True)
class PartitionFault:
    """Cut connectivity between every pair of the given groups, then heal."""

    at_ms: float
    heal_at_ms: float
    groups: Tuple[NodeGroup, ...]


@dataclass(frozen=True)
class AsymmetricPartitionFault:
    """Cut only the ``src -> dst`` direction, then heal."""

    at_ms: float
    heal_at_ms: float
    src_nodes: NodeGroup
    dst_nodes: NodeGroup


@dataclass(frozen=True)
class LossFault:
    """Drop each message on every link with ``probability``."""

    at_ms: float
    until_ms: float
    probability: float


@dataclass(frozen=True)
class DuplicationFault:
    """Deliver each message on every link twice with ``probability``."""

    at_ms: float
    until_ms: float
    probability: float


@dataclass(frozen=True)
class DelaySpikeFault:
    """Add ``extra_ms`` (+ uniform ``jitter_ms``) to the selected links.

    A jitter comparable to (or larger than) the nominal link delay also
    *reorders* messages, which is the point of the ``dup-reorder`` schedule.
    """

    at_ms: float
    until_ms: float
    extra_ms: float
    jitter_ms: float = 0.0
    src_nodes: Optional[NodeGroup] = None
    dst_nodes: Optional[NodeGroup] = None


@dataclass(frozen=True)
class CrashFault:
    """Crash one node (and optionally restart it later)."""

    at_ms: float
    node_id: int
    restart_at_ms: Optional[float] = None


@dataclass(frozen=True)
class ClockSkewFault:
    """Scale one node's timer delays by ``factor`` during the window."""

    at_ms: float
    until_ms: float
    node_id: int
    factor: float


Fault = object  # any of the fault dataclasses above


@dataclass(frozen=True)
class NemesisPlan:
    """A named, immutable schedule of faults."""

    name: str
    faults: Tuple[Fault, ...]

    @property
    def quiesced_at_ms(self) -> float:
        """Earliest virtual time by which every fault has been reverted.

        A :class:`CrashFault` without a restart quiesces at its crash time:
        the node simply stays dead, which is a legal steady state.
        """
        end = 0.0
        for fault in self.faults:
            end = max(end, fault.at_ms)
            for attr in ("heal_at_ms", "until_ms", "restart_at_ms"):
                value = getattr(fault, attr, None)
                if value is not None:
                    end = max(end, value)
        return end

    def describe(self) -> str:
        """Multi-line human-readable form of the schedule."""
        lines = [f"nemesis plan '{self.name}' ({len(self.faults)} faults, "
                 f"quiesced by t={self.quiesced_at_ms:.0f}ms):"]
        for fault in sorted(self.faults, key=lambda f: f.at_ms):
            lines.append(f"  t={fault.at_ms:>7.0f}ms  {fault}")
        return "\n".join(lines)


class Nemesis:
    """Installs a :class:`NemesisPlan` against a running cluster.

    Construction wires the shared fault data plane into every replica's
    transport (through the fault-filter seam) and schedules every fault's
    apply/revert callbacks; nothing happens until the simulator reaches the
    scheduled times.

    Args:
        cluster: a built :class:`~repro.harness.cluster.Cluster`.
        plan: the fault schedule to execute.
    """

    def __init__(self, cluster, plan: NemesisPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        sim = cluster.sim
        self.faults = LinkFaults(sim, cluster.network, sim.rng.fork("nemesis"))
        #: chronological record of every fault transition applied.
        self.log: List[Tuple[float, str]] = []
        for replica in cluster.replicas:
            install = getattr(replica.transport, "install_fault_filter", None)
            if install is not None:
                install(self.faults)
        self._all_nodes: Tuple[int, ...] = tuple(cluster.network.node_ids)
        self._all_links = cross_links(self._all_nodes, self._all_nodes)
        for fault in plan.faults:
            self._schedule(fault)

    # ------------------------------------------------------------- scheduling

    def _note(self, text: str) -> None:
        self.log.append((self.cluster.sim.now, text))

    def _schedule(self, fault: Fault) -> None:
        sim = self.cluster.sim
        if isinstance(fault, PartitionFault):
            links: List[Tuple[int, int]] = []
            for i, group_a in enumerate(fault.groups):
                for group_b in fault.groups[i + 1:]:
                    links.extend(symmetric_links(group_a, group_b))
            sim.schedule_at(fault.at_ms, self._apply_block,
                            args=(links, f"partition {fault.groups}"))
            sim.schedule_at(fault.heal_at_ms, self._heal_block,
                            args=(links, f"heal partition {fault.groups}"))
        elif isinstance(fault, AsymmetricPartitionFault):
            links = cross_links(fault.src_nodes, fault.dst_nodes)
            label = f"one-way cut {fault.src_nodes}->{fault.dst_nodes}"
            sim.schedule_at(fault.at_ms, self._apply_block, args=(links, label))
            sim.schedule_at(fault.heal_at_ms, self._heal_block, args=(links, f"heal {label}"))
        elif isinstance(fault, LossFault):
            links = self._all_links
            sim.schedule_at(fault.at_ms, self._apply_simple,
                            args=(self.faults.set_loss, (links, fault.probability),
                                  f"loss p={fault.probability} on {len(links)} links"))
            sim.schedule_at(fault.until_ms, self._apply_simple,
                            args=(self.faults.clear_loss, (links,), "loss cleared"))
        elif isinstance(fault, DuplicationFault):
            links = self._all_links
            sim.schedule_at(fault.at_ms, self._apply_simple,
                            args=(self.faults.set_duplication, (links, fault.probability),
                                  f"duplication p={fault.probability} on {len(links)} links"))
            sim.schedule_at(fault.until_ms, self._apply_simple,
                            args=(self.faults.clear_duplication, (links,),
                                  "duplication cleared"))
        elif isinstance(fault, DelaySpikeFault):
            links = cross_links(fault.src_nodes or self._all_nodes,
                                fault.dst_nodes or self._all_nodes)
            sim.schedule_at(fault.at_ms, self._apply_simple,
                            args=(self.faults.set_delay_spike,
                                  (links, fault.extra_ms, fault.jitter_ms),
                                  f"delay spike +{fault.extra_ms}ms±{fault.jitter_ms} "
                                  f"on {len(links)} links"))
            sim.schedule_at(fault.until_ms, self._apply_simple,
                            args=(self.faults.clear_delay_spike, (links,),
                                  "delay spike cleared"))
        elif isinstance(fault, CrashFault):
            self.cluster.crash_injector.schedule(ScheduledCrash(
                node_id=fault.node_id, crash_at_ms=fault.at_ms,
                restart_at_ms=fault.restart_at_ms))
            sim.schedule_at(fault.at_ms, self._note, args=(f"crash node {fault.node_id}",))
            if fault.restart_at_ms is not None:
                sim.schedule_at(fault.restart_at_ms, self._note,
                                args=(f"restart node {fault.node_id}",))
        elif isinstance(fault, ClockSkewFault):
            sim.schedule_at(fault.at_ms, self._apply_skew, args=(fault.node_id, fault.factor))
            sim.schedule_at(fault.until_ms, self._apply_skew, args=(fault.node_id, 1.0))
        else:
            raise TypeError(f"unknown fault primitive: {fault!r}")

    # ---------------------------------------------------------------- actions

    def _apply_block(self, links, label: str) -> None:
        self.faults.block(links)
        self._note(f"{label} [queue, {len(links)} links]")

    def _heal_block(self, links, label: str) -> None:
        self.faults.unblock(links)
        self._note(label)

    def _apply_simple(self, fn: Callable, args: tuple, label: str) -> None:
        fn(*args)
        self._note(label)

    def _apply_skew(self, node_id: int, factor: float) -> None:
        self.cluster.replicas[node_id].timer_scale = factor
        self._note(f"clock of node {node_id} scaled x{factor}")

    # ------------------------------------------------------------------ state

    def ensure_quiesced(self) -> None:
        """Force-revert every link fault and clock skew (defensive heal).

        The scheduled revert callbacks normally do this; calling it before a
        progress probe guarantees a clean fabric even for hand-built plans
        that forgot a heal.  Crashed nodes stay crashed (a legal steady
        state the probe must tolerate).
        """
        self.faults.unblock_all()
        self.faults.clear_loss(self._all_links)
        self.faults.clear_duplication(self._all_links)
        self.faults.clear_delay_spike(self._all_links)
        for replica in self.cluster.replicas:
            replica.timer_scale = 1.0

    @property
    def crashed_forever(self) -> List[int]:
        """Nodes the plan crashes and never restarts."""
        dead: Dict[int, bool] = {}
        for fault in self.plan.faults:
            if isinstance(fault, CrashFault):
                dead[fault.node_id] = fault.restart_at_ms is None
        return [node_id for node_id, forever in dead.items() if forever]


# ---------------------------------------------------------------------------
# Named schedule library
# ---------------------------------------------------------------------------
#
# Every builder has the signature ``(n, at_ms, hold_ms) -> NemesisPlan``:
# the fault begins at ``at_ms`` and the fabric is fully healed by
# ``at_ms + hold_ms``.  ``flaky-links`` and the two crashes lose messages;
# every protocol must still make progress after the heal (see the module
# docstring for what carries which protocol through, and what a pass does
# not show).  The
# conformance matrix is the library without ``leader-crash``, which crashes
# node 0 where ``crash-restart`` crashes node n-1: node 0 is Multi-Paxos'
# leader, so with ``--recovery`` it runs Multi-Paxos' election.


def _minority_partition(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Symmetric queue-partition isolating a minority of nodes."""
    minority = tuple(range(n - max(1, (n - 1) // 2), n))
    majority = tuple(i for i in range(n) if i not in minority)
    return NemesisPlan("minority-partition", (
        PartitionFault(at_ms=at_ms, heal_at_ms=at_ms + hold_ms,
                       groups=(majority, minority)),))


def _asymmetric_partition(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """One-way cut: the last node's outbound links go dark."""
    mute = n - 1
    rest = tuple(i for i in range(n) if i != mute)
    return NemesisPlan("asymmetric-partition", (
        AsymmetricPartitionFault(at_ms=at_ms, heal_at_ms=at_ms + hold_ms,
                                 src_nodes=(mute,), dst_nodes=rest),))


def _partition_churn(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Two successive partitions with different cuts, back to back."""
    half = hold_ms / 2.0
    cut_a = tuple(range(2))
    rest_a = tuple(range(2, n))
    cut_b = tuple(range(1, 3)) if n > 3 else cut_a
    rest_b = tuple(i for i in range(n) if i not in cut_b)
    return NemesisPlan("partition-churn", (
        PartitionFault(at_ms=at_ms, heal_at_ms=at_ms + half, groups=(rest_a, cut_a)),
        PartitionFault(at_ms=at_ms + half, heal_at_ms=at_ms + hold_ms,
                       groups=(rest_b, cut_b)),))


def _dup_reorder(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Message duplication plus reordering jitter on every link."""
    return NemesisPlan("dup-reorder", (
        DuplicationFault(at_ms=at_ms, until_ms=at_ms + hold_ms, probability=0.25),
        DelaySpikeFault(at_ms=at_ms, until_ms=at_ms + hold_ms,
                        extra_ms=0.0, jitter_ms=60.0),))


def _delay_storm(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Large extra delay with heavy jitter on every link (WAN brownout)."""
    return NemesisPlan("delay-storm", (
        DelaySpikeFault(at_ms=at_ms, until_ms=at_ms + hold_ms,
                        extra_ms=150.0, jitter_ms=100.0),))


def _slow_node(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """One node's inbound links slow to a crawl (GC-pausing peer)."""
    slow = n // 2
    others = tuple(i for i in range(n) if i != slow)
    return NemesisPlan("slow-node", (
        DelaySpikeFault(at_ms=at_ms, until_ms=at_ms + hold_ms, extra_ms=80.0,
                        jitter_ms=40.0, src_nodes=others, dst_nodes=(slow,)),))


def _clock_skew(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """One slow clock and one fast clock during the window."""
    return NemesisPlan("clock-skew", (
        ClockSkewFault(at_ms=at_ms, until_ms=at_ms + hold_ms, node_id=1, factor=3.0),
        ClockSkewFault(at_ms=at_ms, until_ms=at_ms + hold_ms, node_id=min(2, n - 1),
                       factor=0.4),))


def _crash_restart(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Crash the last node mid-run, restart it at the heal (lossy)."""
    return NemesisPlan("crash-restart", (
        CrashFault(at_ms=at_ms, node_id=n - 1, restart_at_ms=at_ms + hold_ms),))


def _leader_crash(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Crash node 0, Multi-Paxos' leader, restart it at the heal (lossy)."""
    return NemesisPlan("leader-crash", (
        CrashFault(at_ms=at_ms, node_id=0, restart_at_ms=at_ms + hold_ms),))


def _flaky_links(n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Probabilistic message loss on every link (lossy)."""
    return NemesisPlan("flaky-links", (
        LossFault(at_ms=at_ms, until_ms=at_ms + hold_ms, probability=0.15),))


#: The full schedule library (name -> builder).
NEMESIS_SCHEDULES: Dict[str, Callable[[int, float, float], NemesisPlan]] = {
    "minority-partition": _minority_partition,
    "asymmetric-partition": _asymmetric_partition,
    "partition-churn": _partition_churn,
    "dup-reorder": _dup_reorder,
    "delay-storm": _delay_storm,
    "slow-node": _slow_node,
    "clock-skew": _clock_skew,
    "crash-restart": _crash_restart,
    "leader-crash": _leader_crash,
    "flaky-links": _flaky_links,
}

#: The schedules every protocol must survive (the conformance matrix),
#: the lossy pair (``crash-restart``, ``flaky-links``) included.
CONFORMANCE_SCHEDULES: Tuple[str, ...] = (
    "minority-partition",
    "asymmetric-partition",
    "partition-churn",
    "dup-reorder",
    "delay-storm",
    "slow-node",
    "clock-skew",
    "crash-restart",
    "flaky-links",
)


def build_schedule(name: str, n: int, at_ms: float, hold_ms: float) -> NemesisPlan:
    """Instantiate a named schedule for an ``n``-node cluster."""
    try:
        builder = NEMESIS_SCHEDULES[name]
    except KeyError:
        raise ValueError(f"unknown nemesis schedule {name!r}; "
                         f"known: {sorted(NEMESIS_SCHEDULES)}") from None
    return builder(n, at_ms, hold_ms)


#: Faults in one :func:`random_plan`.
RANDOM_PLAN_FAULTS = 3


def random_plan(rng: DeterministicRandom, n: int, at_ms: float, hold_ms: float,
                include_lossy: bool) -> NemesisPlan:
    """Generate a random fault schedule from a deterministic stream.

    Each of its :data:`RANDOM_PLAN_FAULTS` faults occupies a random
    sub-window of ``[at_ms, at_ms + hold_ms]``; the plan is fully healed by
    the end of the window.  With ``include_lossy`` the generator may also
    draw message loss and crash/restart faults.

    Fork ``rng`` per campaign cell (e.g. ``root.fork_cell(("chaos", seed,
    i))``) so every generated plan replays from its coordinates.
    """
    kinds = ["partition", "asymmetric", "dup", "delay", "skew"]
    if include_lossy:
        kinds += ["loss", "crash"]
    faults: List[Fault] = []
    for _ in range(RANDOM_PLAN_FAULTS):
        start = at_ms + rng.uniform(0.0, hold_ms * 0.5)
        end = start + rng.uniform(hold_ms * 0.2, hold_ms * 0.5)
        end = min(end, at_ms + hold_ms)
        kind = rng.choice(kinds)
        if kind == "partition":
            cut = tuple(sorted(_sample(rng, n, rng.randint(1, max(1, n // 2)))))
            rest = tuple(i for i in range(n) if i not in cut)
            faults.append(PartitionFault(at_ms=start, heal_at_ms=end, groups=(rest, cut)))
        elif kind == "asymmetric":
            mute = rng.randint(0, n - 1)
            rest = tuple(i for i in range(n) if i != mute)
            faults.append(AsymmetricPartitionFault(at_ms=start, heal_at_ms=end,
                                                   src_nodes=(mute,), dst_nodes=rest))
        elif kind == "dup":
            faults.append(DuplicationFault(at_ms=start, until_ms=end,
                                           probability=rng.uniform(0.05, 0.4)))
        elif kind == "delay":
            faults.append(DelaySpikeFault(at_ms=start, until_ms=end,
                                          extra_ms=rng.uniform(20.0, 200.0),
                                          jitter_ms=rng.uniform(0.0, 120.0)))
        elif kind == "skew":
            faults.append(ClockSkewFault(at_ms=start, until_ms=end,
                                         node_id=rng.randint(0, n - 1),
                                         factor=rng.choice([0.3, 0.5, 2.0, 4.0])))
        elif kind == "loss":
            faults.append(LossFault(at_ms=start, until_ms=end,
                                    probability=rng.uniform(0.05, 0.3)))
        else:  # crash
            faults.append(CrashFault(at_ms=start, node_id=rng.randint(0, n - 1),
                                     restart_at_ms=end))
    return NemesisPlan("random", tuple(faults))


def _sample(rng: DeterministicRandom, n: int, k: int) -> List[int]:
    """Draw ``k`` distinct node ids deterministically."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    return nodes[:k]
