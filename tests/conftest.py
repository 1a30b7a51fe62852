"""Shared pytest fixtures for the CAESAR reproduction test suite."""

from __future__ import annotations

import os
import signal
from math import inf
from typing import Optional

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command
from repro.consensus.quorums import QuorumSystem
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.caesar import CaesarReplica
from repro.core.history import CommandStatus
from repro.core.predecessors import compute_predecessor_mask
from repro.kvstore.store import KeyValueStore
from repro.runtime.kernel import ProtocolKernel, RetransmitBuffer
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology, ec2_five_sites


#: Default per-test wall-clock budget in seconds.  A simulator or protocol
#: regression that turns a test into an endless event loop should fail loudly
#: and quickly instead of hanging the whole suite; override per test with
#: ``@pytest.mark.deadline(seconds)`` or globally with REPRO_TEST_DEADLINE_S.
DEFAULT_TEST_DEADLINE_S = 120.0


class TestDeadlineExceeded(Exception):
    """Raised inside a test that overran its wall-clock deadline."""


@pytest.fixture(autouse=True)
def _test_deadline(request):
    """Fail any test that runs longer than its wall-clock deadline.

    Uses ``SIGALRM`` (skipped on platforms without it, and under ``-p
    no:cacheprovider`` style workers running off the main thread).  The limit
    is deliberately generous — it exists to catch hangs, not slowness.
    """
    limit = float(os.environ.get("REPRO_TEST_DEADLINE_S", DEFAULT_TEST_DEADLINE_S))
    marker = request.node.get_closest_marker("deadline")
    if marker is not None and marker.args:
        limit = float(marker.args[0])
    if limit <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return
    def _on_alarm(signum, frame):
        raise TestDeadlineExceeded(f"test exceeded its {limit:.0f}s deadline")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not on the main thread
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def disable_retransmission(monkeypatch):
    """A call that switches the kernel's retransmission + catch-up layer off
    for the rest of the test.

    No round is ever tracked for resending and no execution gap is ever
    probed, so a lost message stays lost: the behaviour before the layer
    existed, which the negative controls compare against.  Nothing in
    ``src/`` can switch the layer off.
    """
    def disable() -> None:
        monkeypatch.setattr(RetransmitBuffer, "track", lambda self, *args, **kwargs: None)
        monkeypatch.setattr(ProtocolKernel, "note_progress_gap", lambda self: None)

    return disable


@pytest.fixture
def topology():
    """The paper's five-site EC2 topology."""
    return ec2_five_sites()


def uniform_topology(n: int, rtt_ms: float = 50.0, local_delivery_ms: float = 0.05) -> Topology:
    """A synthetic topology where every pair of distinct sites has the same RTT."""
    sites = [f"site{i}" for i in range(n)]
    rtt = {(sites[i], sites[j]): rtt_ms for i in range(n) for j in range(i + 1, n)}
    return Topology(sites=sites, rtt_ms=rtt, local_delivery_ms=local_delivery_ms)


def lan_topology(n: int, rtt_ms: float = 0.5) -> Topology:
    """A low-latency topology approximating a single data center."""
    return uniform_topology(n, rtt_ms=rtt_ms, local_delivery_ms=0.01)


#: Executed events between two checks of :func:`run_until_executed`'s
#: completion predicate; up to this many minus one extra events may run.
EXECUTED_CHECK_EVERY = 32


def run_until_executed(cluster, command_ids, deadline_ms: Optional[float] = None) -> bool:
    """Run a simulated cluster until every live replica has executed every given command.

    The predicate is evaluated every :data:`EXECUTED_CHECK_EVERY` events
    rather than after every event, so the hot loop never pays the
    per-replica, per-command rescan.

    Args:
        cluster: a :class:`~repro.harness.cluster.Cluster`.
        command_ids: commands that must be executed everywhere.
        deadline_ms: optional bound, relative to the current virtual time.

    Returns:
        ``True`` when all commands executed everywhere, ``False`` on
        queue drain or deadline expiry.
    """
    ids = list(command_ids)
    deadline = inf if deadline_ms is None else cluster.sim.now + deadline_ms
    return cluster.sim.run_until(lambda: cluster.all_executed(ids), deadline=deadline,
                                 check_every=EXECUTED_CHECK_EVERY)


def drain(sim: Simulator) -> None:
    """Run every queued event, leaving the clock at the last one's time.

    ``Simulator.run`` always ends at its ``until``; a test that reads the
    clock after the queue empties runs to an unreachable predicate instead.
    """
    sim.run_until(lambda: False, deadline=inf)


def ignore(result) -> None:
    """The client callback of a test that reads replicas, not replies."""


def make_command(client: int, seq: int, key: str = "k", origin: int = 0,
                 operation: str = "put") -> Command:
    """Convenience constructor for test commands."""
    return Command(command_id=(client, seq), key=key, operation=operation,
                   value=f"v{client}.{seq}", origin=origin)


def write_entry(history, command, timestamp, predecessors, status, ballot, forced=False):
    """Write ``command``'s history entry as a CAESAR handler does.

    ``predecessors`` (command ids) is translated to a bitmask on the command's
    key, and ``CommandHistory.update`` gets the entry the command has now.
    """
    mask = history.mask_from_ids(predecessors, command.key)
    return history.update(command, timestamp, mask, status, ballot,
                          history.get(command.command_id), forced)


def evaluate_wait(manager, history, command, timestamp, on_resolved, args=()):
    """``WaitManager.evaluate`` as a proposal handler runs it, on the command's entry.

    A command without an entry gets the one the fast-proposal handler writes
    first: FAST_PENDING at ``timestamp``, with the predecessors
    COMPUTEPREDECESSORS gives there.
    """
    entry = history.get(command.command_id)
    if entry is None:
        mask = compute_predecessor_mask(history, command, timestamp, None)
        entry = history.update(command, timestamp, mask, CommandStatus.FAST_PENDING,
                               Ballot.initial(command.origin), None)
    return manager.evaluate(command, timestamp, on_resolved, entry, args)


def build_replicas(cls=CaesarReplica, n: int = 5, seed: int = 1, recovery: bool = False,
                   topology=None, jitter_ms: float = 0.0, **options):
    """Build a cluster of ``cls`` replicas directly (without the harness).

    The paper's five EC2 sites for five replicas, else equal 40 ms RTTs;
    ``options`` go to every replica's constructor.  ``recovery`` is the switch
    ``build_replica`` sets, and with it on every replica's failure detector is
    started.  Returns ``(sim, network, replicas)``.
    """
    topology = topology or (ec2_five_sites() if n == 5 else uniform_topology(n, rtt_ms=40.0))
    sim = Simulator(seed=seed)
    network = Network(sim, topology, NetworkConfig(jitter_ms=jitter_ms))
    quorums = QuorumSystem.for_cluster(n)
    replicas = [cls(i, sim, network, quorums, KeyValueStore(), **options) for i in range(n)]
    if recovery:
        for replica in replicas:
            replica.recovery_on = True
            replica.start()
    return sim, network, replicas


def submit_and_run(sim, replicas, commands, deadline_ms: float = 30000.0) -> bool:
    """Submit ``(replica index, command)`` pairs and run until every live
    replica has executed them all (``False`` at the deadline)."""
    for origin, command in commands:
        replicas[origin].submit(command, ignore)
    ids = [command.command_id for _, command in commands]
    return sim.run_until(
        lambda: all(r.has_executed(cid) for r in replicas if not r.crashed for cid in ids),
        deadline=deadline_ms)


def order_violations(replicas) -> list:
    """Conflicting command pairs two live replicas executed in different orders."""
    live = [replica for replica in replicas if not replica.crashed]
    return [pair for i, first in enumerate(live) for second in live[i + 1:]
            for pair in first.execution_log.conflicting_order_violations(second.execution_log)]


def ts(counter: int, node: int = 0) -> LogicalTimestamp:
    return LogicalTimestamp(counter, node)


@pytest.fixture
def caesar_cluster():
    """Factory fixture for CAESAR clusters."""
    return build_replicas
