"""The protocol-runtime kernel every replica runs on.

:class:`ProtocolKernel` extends the bare
:class:`~repro.consensus.interface.ConsensusReplica` (state machine, decision
records, execution log) with the plumbing the five protocols used to
hand-roll independently:

* **declarative message dispatch** — handlers are marked with
  ``@handles(MessageType)`` and collected per class; the kernel's uniform
  :meth:`ProtocolKernel.handle_message` performs the exact-type lookup, so no
  replica defines its own dispatch table;
* **failure detection** — when recovery is on (``recovery_on``, set by
  :func:`~repro.harness.protocols.build_replica`) and the protocol defines an
  ``on_suspect`` hook, the kernel runs one :class:`FailureDetector`, feeds
  it heartbeats and counts every message as liveness evidence;
* **quorum trackers** (:class:`QuorumTracker`) — insertion-ordered vote
  collection with a threshold, replacing the per-protocol reply dicts and
  ack sets;
* **unified statistics** — every replica carries one
  :class:`~repro.runtime.stats.ProtocolStats` record;
* **retransmission** (:class:`RetransmitBuffer`) — quorum-pending broadcasts
  are re-sent to non-voters on a capped-exponential-backoff timer until the
  quorum is reached or the round is superseded, so probabilistic message
  loss costs latency instead of liveness;
* **catch-up** (:class:`CatchUpRequest` / :class:`CatchUpReply`) — a replica
  whose execution has a persistent gap (restarted, or partitioned while
  decisions happened elsewhere) asks its peers to replay the decided
  messages it is missing; protocols describe the gap via
  :meth:`ProtocolKernel.catchup_need` and answer via
  :meth:`ProtocolKernel.catchup_supply`.

Both layers are **byte-neutral on loss-free runs**: the retransmission scan
defers while a quorum is still gathering votes (and while the CPU is
backlogged), and the catch-up probe only fires when execution has been
*stuck on the same gap* for a full check interval — neither happens when
every message arrives.  The jittered backoff draws from a dedicated RNG
fork only when a resend actually happens, so clean runs consume no extra
randomness.

Protocol subclasses implement only their actual protocol logic: the
``propose`` entry point and one ``@handles``-marked method per message type.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type, ValuesView

from repro.consensus.interface import ConsensusReplica
from repro.consensus.quorums import QuorumSystem
from repro.kvstore.state_machine import StateMachine
from repro.runtime.clock import Clock
from repro.runtime.codec import STRING, UINT, SeqCodec, value_type
from repro.runtime.costs import CostModel
from repro.runtime.registry import MessageCodec, register_message
from repro.runtime.stats import ProtocolStats
from repro.sim.failures import FailureDetector, Heartbeat

#: Function attribute carrying the message classes a method handles.
_HANDLES_ATTR = "_kernel_handles"


def handles(message_cls: Type):
    """Mark a kernel method as the handler for ``message_cls``.

    The kernel collects marked methods per class (subclasses may override a
    base handler by re-marking a method for the same message type) and builds
    the exact-type dispatch used by :meth:`ProtocolKernel.handle_message`.
    """

    def mark(fn: Callable) -> Callable:
        setattr(fn, _HANDLES_ATTR, getattr(fn, _HANDLES_ATTR, ()) + (message_cls,))
        return fn

    return mark


class QuorumTracker:
    """Insertion-ordered vote collector with a fixed threshold.

    Args:
        threshold: votes (including ``extra_votes``) needed for the quorum.
        extra_votes: votes counted implicitly (typically the collector's own
            vote when it does not message itself).
    """

    __slots__ = ("threshold", "extra_votes", "_votes")

    def __init__(self, threshold: int, extra_votes: int = 0) -> None:
        self.threshold = threshold
        self.extra_votes = extra_votes
        self._votes: Dict[int, object] = {}

    def vote(self, src: int, payload: object = True) -> bool:
        """Record ``src``'s vote (replacing any earlier one); True once quorate."""
        self._votes[src] = payload
        return len(self._votes) + self.extra_votes >= self.threshold

    @property
    def count(self) -> int:
        """Votes recorded so far, including the implicit extra votes."""
        return len(self._votes) + self.extra_votes

    @property
    def reached(self) -> bool:
        """Whether the threshold has been met."""
        return len(self._votes) + self.extra_votes >= self.threshold

    def payloads(self) -> ValuesView:
        """Recorded vote payloads, in arrival order (implicit votes excluded).

        A live view, not a copy: a caller that votes while walking it must
        copy it first.
        """
        return self._votes.values()

    def voters(self) -> List[int]:
        """Voter ids, in arrival order."""
        return list(self._votes)


# Tuning of the retransmission and catch-up layer.  The values are
# deliberately conservative relative to clean-run quorum latencies (a
# wide-area quorum gathers in ~300 ms): the first resend only happens after
# RETRANSMIT_INITIAL_TIMEOUT_MS with *no* new votes, so loss-free runs never
# retransmit and their metric series stay byte-identical.

#: How often the buffer looks for overdue rounds (armed lazily — no pending
#: rounds, no timer).
RETRANSMIT_SCAN_EVERY_MS = 250.0
#: Quiet time before the first resend of a round.
RETRANSMIT_INITIAL_TIMEOUT_MS = 1500.0
#: Per-attempt timeout multiplier (capped below).
RETRANSMIT_BACKOFF_FACTOR = 2.0
#: Backoff ceiling.
RETRANSMIT_MAX_TIMEOUT_MS = 6000.0
#: Uniform jitter added to each backoff deadline, drawn from a dedicated RNG
#: fork only when a resend actually happened.
RETRANSMIT_JITTER_MS = 50.0
#: Resend budget per round before the buffer gives up (recovery / catch-up
#: then owns the round's fate).
RETRANSMIT_MAX_ATTEMPTS = 12
#: If the node's CPU backlog exceeds this, the scan (and the catch-up probe)
#: defers wholesale — votes are queued, not lost.
BACKLOG_DEFER_MS = 200.0
#: Quiet time before a noted execution gap triggers a :class:`CatchUpRequest`
#: (also the re-check interval).
CATCHUP_CHECK_MS = 600.0
#: Per-attempt catch-up interval multiplier.
CATCHUP_BACKOFF_FACTOR = 2.0
#: Catch-up backoff ceiling.
CATCHUP_MAX_INTERVAL_MS = 4800.0
#: Catch-up probes per unchanged gap signature.
CATCHUP_MAX_ATTEMPTS = 10
#: Max replayed messages per reply.
CATCHUP_REPLY_LIMIT = 128


@register_message(sender=UINT, cursor=UINT, want=SeqCodec(STRING))
@value_type
class CatchUpRequest:
    """Ask peers to replay decided state this replica is missing.

    ``cursor`` is a protocol-defined low-water mark (e.g. the next
    unexecuted slot); ``want`` is an optional list of protocol-defined
    tokens naming specific missing items (e.g. EPaxos instance ids).
    """

    sender: int
    cursor: int
    want: Tuple[str, ...] = ()


@register_message(sender=UINT, messages=SeqCodec(MessageCodec()))
@value_type
class CatchUpReply:
    """Replayed decided messages; each is re-dispatched through the normal
    handler path at the receiver (decided-message handlers are idempotent)."""

    sender: int
    messages: Tuple = ()


class _RetransmitEntry:
    """One quorum-pending broadcast round tracked by the buffer."""

    __slots__ = ("message", "tracker", "done", "voters",
                 "deadline", "timeout", "attempts", "last_count")

    def __init__(self, message: object, tracker: Optional[QuorumTracker],
                 done: Optional[Callable[[], bool]],
                 voters: Optional[Callable[[], List[int]]], now: float) -> None:
        self.message = message
        self.tracker = tracker
        self.done = done
        self.voters = voters
        self.timeout = RETRANSMIT_INITIAL_TIMEOUT_MS
        self.deadline = now + self.timeout
        self.attempts = 0
        self.last_count = tracker.count if tracker is not None else 0


class RetransmitBuffer:
    """Re-sends quorum-pending broadcasts until acked or superseded.

    A protocol :meth:`track`\\ s a round when it broadcasts a message that
    gathers votes in a :class:`QuorumTracker`; the buffer periodically scans
    for rounds that have been quiet past their deadline and re-sends the
    message to every peer that has not voted yet, with capped exponential
    backoff.  Rounds resolve themselves (tracker quorate / ``done``
    predicate) or are resolved explicitly when superseded.

    The scan timer is armed lazily — an empty buffer schedules nothing, so
    a finished run drains and the simulator's event queue empties.
    """

    def __init__(self, kernel: "ProtocolKernel") -> None:
        self.kernel = kernel
        self._entries: Dict[object, _RetransmitEntry] = {}
        self._timer = None
        #: jitter stream, forked per node; drawn from only on actual resends
        #: so loss-free runs consume no randomness from it.
        self._jitter = kernel.sim.rng.fork(f"retransmit-{kernel.node_id}")

    def track(self, key: object, message: object, *,
              tracker: Optional[QuorumTracker] = None,
              done: Optional[Callable[[], bool]] = None,
              voters: Optional[Callable[[], List[int]]] = None) -> None:
        """Start (or supersede) the pending round ``key``.

        Args:
            key: protocol-chosen identity of the round; re-tracking the same
                key replaces the previous message (slow path supersedes fast
                path).
            message: the broadcast to re-send while the round is pending.
            tracker: the round's vote collector; by default the round
                resolves once it is quorate and voters are skipped on
                resend.
            done: overrides the tracker's ``reached`` as the resolution
                predicate (e.g. committed flags that outlive the tracker).
            voters: overrides the tracker's voter list as the skip set.
        """
        self._entries[key] = _RetransmitEntry(
            message, tracker, done, voters, self.kernel.sim.now)
        self._arm()

    def resolve(self, key: object) -> None:
        """Drop the pending round ``key`` (decided, superseded, or aborted)."""
        self._entries.pop(key, None)

    def rearm_after_restart(self) -> None:
        """Re-establish the scan chain after a crash/restart cycle.

        A timer armed before the crash either fired while crashed (silently
        skipped) or is still scheduled; cancelling it and re-arming keeps
        exactly one scan chain alive.  Every pending round is due at once:
        each answer addressed to the dead process was lost, so the votes its
        tracker counted before the crash (the leader's own, at least) are no
        progress to wait out a deadline for.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        now = self.kernel.sim.now
        for entry in self._entries.values():
            entry.deadline = now
            entry.last_count = self._count(entry)
        self._arm()

    # ------------------------------------------------------------- internals

    def _arm(self) -> None:
        if self._timer is None and self._entries:
            self._timer = self.kernel.set_timer(RETRANSMIT_SCAN_EVERY_MS, self._scan)

    @staticmethod
    def _is_done(entry: _RetransmitEntry) -> bool:
        if entry.done is not None:
            return entry.done()
        return entry.tracker.reached if entry.tracker is not None else False

    @staticmethod
    def _count(entry: _RetransmitEntry) -> int:
        return entry.tracker.count if entry.tracker is not None else 0

    @staticmethod
    def _voters(entry: _RetransmitEntry) -> List[int]:
        if entry.voters is not None:
            return entry.voters()
        return entry.tracker.voters() if entry.tracker is not None else []

    def _scan(self) -> None:
        self._timer = None
        if not self._entries:
            return
        kernel = self.kernel
        if kernel.cpu_backlog_ms > BACKLOG_DEFER_MS:
            # Votes may simply be queued behind CPU work; resending now
            # would be noise (and would perturb saturated loss-free runs).
            self._arm()
            return
        now = kernel.sim.now
        for key in list(self._entries):
            entry = self._entries[key]
            if self._is_done(entry):
                del self._entries[key]
                continue
            if now < entry.deadline:
                continue
            count = self._count(entry)
            if count > entry.last_count:
                # The round is making progress — push the deadline out
                # instead of resending.
                entry.last_count = count
                entry.deadline = now + entry.timeout
                continue
            entry.attempts += 1
            if entry.attempts > RETRANSMIT_MAX_ATTEMPTS:
                del self._entries[key]
                continue
            skip = set(self._voters(entry))
            skip.add(kernel.node_id)
            for dst in kernel.network.node_ids:
                if dst in skip:
                    continue
                kernel.send(dst, entry.message)
                kernel.stats.retransmissions_sent += 1
            entry.timeout = min(entry.timeout * RETRANSMIT_BACKOFF_FACTOR,
                                RETRANSMIT_MAX_TIMEOUT_MS)
            entry.deadline = now + entry.timeout + self._jitter.uniform(
                0.0, RETRANSMIT_JITTER_MS)
        self._arm()


class ProtocolKernel(ConsensusReplica):
    """Base class for protocol replicas running on the runtime kernel.

    Subclasses mark message handlers with :func:`handles`; the kernel builds
    the dispatch, owns the unified stats record, and runs the failure
    detector when ``recovery_on`` is set and the protocol defines
    :attr:`on_suspect`.
    """

    #: per-class map ``message class -> handler method name`` (built once).
    _handler_specs: Dict[Type, str] = {}

    #: Protocol hook ``on_suspect(peer)``, called once per newly suspected
    #: peer; a protocol with a recovery path defines it as a method.
    on_suspect: Optional[Callable[[int], None]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        specs: Dict[Type, str] = {}
        for base in reversed(cls.__mro__):
            for name, attr in vars(base).items():
                for message_cls in getattr(attr, _HANDLES_ATTR, ()):
                    specs[message_cls] = name
        cls._handler_specs = specs

    def __init__(self, node_id: int, sim: Clock, network, quorums: QuorumSystem,
                 state_machine: StateMachine, cost_model: Optional[CostModel]) -> None:
        super().__init__(node_id, sim, network, quorums, state_machine, cost_model)
        self.stats = ProtocolStats()
        #: The recovery switch; off unless the harness turns it on.
        self.recovery_on = False
        #: The history-collection switch, set like ``recovery_on``; a protocol
        #: that keeps a command history (CAESAR) forgets, while it is on, the
        #: commands every replica has delivered.
        self.history_gc = False
        self.failure_detector: Optional[FailureDetector] = None
        self.retransmit = RetransmitBuffer(self)
        self._catchup_timer = None
        self._catchup_attempts = 0
        self._catchup_signature: Optional[tuple] = None
        #: bound-method dispatch table (exact type -> handler), built once per
        #: instance so the hot path is a dict lookup plus a call.
        self._dispatch = {message_cls: getattr(self, name)
                          for message_cls, name in type(self)._handler_specs.items()}

    # ------------------------------------------------------ message dispatch

    def handle_message(self, src: int, message: object) -> None:
        """Uniform dispatch path: liveness evidence, then the exact-type handler."""
        if self.failure_detector is not None:
            self.failure_detector.observe_any_message(src)
        handler = self._dispatch.get(type(message))
        if handler is None:
            raise TypeError(f"unexpected message type {type(message).__name__}")
        handler(src, message)

    @handles(Heartbeat)
    def _on_heartbeat(self, src: int, message: Heartbeat) -> None:
        """Feed a heartbeat to the failure detector (no-op when disabled)."""
        if self.failure_detector is not None:
            self.failure_detector.observe_heartbeat(message)

    # ----------------------------------------------------- failure detection

    def start(self) -> None:
        """Start the failure detector when recovery is on and the protocol has
        an :attr:`on_suspect` hook; call once per run."""
        if self.recovery_on and self.on_suspect is not None and self.failure_detector is None:
            self.failure_detector = FailureDetector(self, self.network.node_ids,
                                                    self.on_suspect)
            self.failure_detector.start()

    # --------------------------------------------------------------- catch-up

    def catchup_need(self) -> Optional[Tuple[int, Tuple[str, ...]]]:
        """Describe this replica's execution gap, or ``None`` when caught up.

        Protocol hook.  Returns ``(cursor, want)`` — a protocol-defined
        low-water mark plus tokens naming specific missing items — that is
        broadcast in a :class:`CatchUpRequest` if the gap persists.
        """
        return None

    def catchup_supply(self, cursor: int, want: Tuple[str, ...]):
        """Decided messages this replica can replay for a peer's gap.

        Protocol hook.  Returns an iterable of registered decided-type
        messages (e.g. commits); each is re-dispatched through the normal
        handler path at the requester.
        """
        return []

    def note_progress_gap(self) -> None:
        """Note that local execution may be stuck behind missing decisions.

        Protocols call this wherever execution order is (re)evaluated.  If a
        gap exists and no probe is armed, a one-shot check fires after
        ``CATCHUP_CHECK_MS``; only a gap whose *signature* (executed count +
        the gap description) is unchanged for the whole interval triggers a
        :class:`CatchUpRequest` — a live clean run never does.
        """
        if self.crashed or self._catchup_timer is not None:
            return
        need = self.catchup_need()
        if need is None:
            return
        self._catchup_signature = (self.commands_executed,) + tuple(need)
        self._catchup_attempts = 0
        self._catchup_timer = self.set_timer(CATCHUP_CHECK_MS, self._catchup_check)

    def _catchup_check(self) -> None:
        self._catchup_timer = None
        if self.cpu_backlog_ms > BACKLOG_DEFER_MS:
            self._catchup_timer = self.set_timer(CATCHUP_CHECK_MS, self._catchup_check)
            return
        need = self.catchup_need()
        if need is None:
            self._catchup_signature = None
            self._catchup_attempts = 0
            return
        signature = (self.commands_executed,) + tuple(need)
        if signature != self._catchup_signature:
            # Something moved (or the gap changed shape): restart the clock.
            self._catchup_signature = signature
            self._catchup_attempts = 0
            self._catchup_timer = self.set_timer(CATCHUP_CHECK_MS, self._catchup_check)
            return
        self._catchup_attempts += 1
        if self._catchup_attempts > CATCHUP_MAX_ATTEMPTS:
            return
        cursor, want = need
        self.stats.catchup_requests += 1
        self.broadcast(CatchUpRequest(sender=self.node_id, cursor=cursor,
                                      want=tuple(want)), include_self=False)
        interval = min(
            CATCHUP_CHECK_MS * CATCHUP_BACKOFF_FACTOR ** self._catchup_attempts,
            CATCHUP_MAX_INTERVAL_MS)
        self._catchup_timer = self.set_timer(interval, self._catchup_check)

    @handles(CatchUpRequest)
    def _on_catchup_request(self, src: int, message: CatchUpRequest) -> None:
        supplies = list(self.catchup_supply(message.cursor, message.want))
        if not supplies:
            return
        supplies = supplies[:CATCHUP_REPLY_LIMIT]
        self.stats.catchup_replies += 1
        self.send(src, CatchUpReply(sender=self.node_id, messages=tuple(supplies)))

    @handles(CatchUpReply)
    def _on_catchup_reply(self, src: int, message: CatchUpReply) -> None:
        for inner in message.messages:
            self.handle_message(src, inner)

    # ------------------------------------------------------------- life cycle

    def on_restart(self) -> None:
        """Re-establish the timer chains a crash silently killed."""
        super().on_restart()
        self.retransmit.rearm_after_restart()
        if self._catchup_timer is not None:
            self._catchup_timer.cancel()
            self._catchup_timer = None
        self._catchup_attempts = 0
        self._catchup_signature = None
        self.note_progress_gap()
