"""Shared pytest fixtures for the CAESAR reproduction test suite."""

from __future__ import annotations

import os
import signal

import pytest

from repro.consensus.command import Command
from repro.consensus.quorums import QuorumSystem
from repro.core.caesar import CaesarReplica
from repro.core.config import CaesarConfig
from repro.kvstore.store import KeyValueStore
from repro.runtime.kernel import ProtocolKernel, RetransmitBuffer
from repro.sim.network import Network, NetworkConfig
from repro.sim.simulator import Simulator
from repro.sim.topology import ec2_five_sites, uniform_topology


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
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def topology():
    """The paper's five-site EC2 topology."""
    return ec2_five_sites()


@pytest.fixture
def network(sim, topology) -> Network:
    """A network over the EC2 topology with no jitter or loss."""
    return Network(sim, topology, NetworkConfig())


@pytest.fixture
def quorums() -> QuorumSystem:
    """Quorum sizes for the five-node cluster."""
    return QuorumSystem.for_cluster(5)


def make_command(client: int, seq: int, key: str = "k", origin: int = 0,
                 operation: str = "put") -> Command:
    """Convenience constructor for test commands."""
    return Command(command_id=(client, seq), key=key, operation=operation,
                   value=f"v{client}.{seq}", origin=origin)


@pytest.fixture
def make_cmd():
    """Fixture exposing the command factory to tests."""
    return make_command


def build_caesar_cluster(n: int = 5, seed: int = 1, recovery: bool = False,
                         wait_condition: bool = True, topology=None,
                         fast_timeout_ms: float = 400.0):
    """Build a CAESAR cluster directly (without the harness) for protocol tests.

    Returns ``(sim, network, replicas)``.
    """
    topology = topology or (ec2_five_sites() if n == 5 else uniform_topology(n, rtt_ms=40.0))
    sim = Simulator(seed=seed)
    network = Network(sim, topology)
    quorums = QuorumSystem.for_cluster(n)
    config = CaesarConfig(recovery_enabled=recovery, wait_condition_enabled=wait_condition,
                          fast_proposal_timeout_ms=fast_timeout_ms)
    replicas = [CaesarReplica(i, sim, network, quorums, KeyValueStore(), config=config)
                for i in range(n)]
    if recovery:
        for replica in replicas:
            replica.start()
    return sim, network, replicas


@pytest.fixture
def caesar_cluster():
    """Factory fixture for CAESAR clusters."""
    return build_caesar_cluster
