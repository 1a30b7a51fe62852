"""Conformance suite for the Transport contract, run over BOTH backends.

Every behaviour asserted here is part of the documented lifecycle in
:class:`repro.runtime.transport.Transport`; the suite is parametrized over
the simulator backend (:class:`SimulatorTransport` on a discrete-event
network) and the socket backend (:class:`AsyncioTransport` on a wall-clock
peer network), so the two substrates cannot drift apart silently.

Messages are sent the way protocols send them — ``node.send`` /
``node.broadcast`` — because that is a crash gate plus one call into the
node's transport: there is no other way out of a replica to test.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.clock import WallClock
from repro.net.transport import PeerNetwork
from repro.net.wire import Hello
from repro.runtime.batching import BatchingConfig
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.sim.topology import lan_topology


class RecordingNode(Node):
    """A node that records every dispatched message."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle_message(self, src: int, message: object) -> None:
        self.handled.append((src, message))


class SimulatorBackend:
    """Contract harness over the discrete-event substrate."""

    name = "simulator"

    def __init__(self) -> None:
        self.sim = Simulator(seed=1)
        self.network = Network(self.sim, lan_topology(3))
        self.nodes = [RecordingNode(i, self.sim, self.network) for i in range(3)]

    def call(self, fn):
        return fn()

    def advance(self, ms: float) -> None:
        self.sim.run(until=self.sim.now + ms)

    def close(self) -> None:
        pass


class AsyncioBackend:
    """Contract harness over the wall-clock/socket substrate.

    One locally hosted node; the two remote peers point at unreachable
    localhost ports, which is fine for the contract suite — drop-when-
    unreachable is part of the contract.
    """

    name = "asyncio"

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        clock = WallClock(seed=1, loop=self.loop)
        peers = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2), 2: ("127.0.0.1", 3)}
        self.network = PeerNetwork(clock, 0, peers)
        self.nodes = [RecordingNode(0, clock, self.network)]

    def call(self, fn):
        async def wrapper():
            return fn()

        return self.loop.run_until_complete(wrapper())

    def advance(self, ms: float) -> None:
        # Real milliseconds; contract delays are kept tiny on purpose.
        self.loop.run_until_complete(asyncio.sleep(ms / 1000.0))

    def close(self) -> None:
        self.call(lambda: self.nodes[0].transport.close())
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()


@pytest.fixture(params=[SimulatorBackend, AsyncioBackend], ids=["simulator", "asyncio"])
def backend(request):
    instance = request.param()
    yield instance
    instance.close()


def message() -> Hello:
    """Any registered message works as a payload."""
    return Hello(sender=7, role=0)


class TestTransportContract:
    def test_node_ids_lists_the_whole_cluster(self, backend):
        transport = backend.nodes[0].transport
        assert list(transport.node_ids) == [0, 1, 2]

    def test_timers_work_from_construction_before_start(self, backend):
        """Phase 1 of the lifecycle: timers are live before start()."""
        fired = []
        transport = backend.nodes[0].transport
        backend.call(lambda: transport.set_timer(5.0, lambda: fired.append(True)))
        assert fired == []
        backend.advance(50.0)
        assert fired == [True]

    def test_cancelled_timer_never_fires(self, backend):
        fired = []
        transport = backend.nodes[0].transport
        timer = backend.call(
            lambda: transport.set_timer(5.0, lambda: fired.append(True)))
        assert not timer.cancelled
        backend.call(timer.cancel)
        assert timer.cancelled
        backend.advance(50.0)
        assert fired == []

    def test_timer_args_reach_the_callback(self, backend):
        """``set_timer(delay, callback, *args)`` on the transport and on the node:
        the arguments ride in the clock's event, so no closure is needed."""
        fired = []

        def record(*args):
            fired.append(args)

        node = backend.nodes[0]
        backend.call(lambda: node.transport.set_timer(5.0, record, "transport"))
        backend.call(lambda: node.set_timer(5.0, record, "node", 2))
        backend.call(lambda: node.set_timer(5.0, record))
        backend.advance(50.0)
        assert sorted(fired) == [(), ("node", 2), ("transport",)]

    def test_a_node_timer_with_args_is_crash_gated(self, backend):
        fired = []
        node = backend.nodes[0]
        backend.call(lambda: node.set_timer(5.0, fired.append, "late"))
        backend.call(node.crash)
        backend.advance(50.0)
        assert fired == []

    def test_a_node_timer_with_args_runs_on_the_skewed_local_clock(self, backend):
        """A slow local clock (``timer_scale`` 40) turns 5 ms into 200 ms."""
        fired = []
        node = backend.nodes[0]
        node.timer_scale = 40.0
        backend.call(lambda: node.set_timer(5.0, fired.append, "skewed"))
        backend.advance(20.0)
        assert fired == []
        backend.advance(300.0)
        assert fired == ["skewed"]

    def test_a_node_timer_with_args_can_be_cancelled(self, backend):
        fired = []
        node = backend.nodes[0]
        timer = backend.call(lambda: node.set_timer(5.0, fired.append, "cancelled"))
        backend.call(timer.cancel)
        assert timer.cancelled
        backend.advance(50.0)
        assert fired == []

    def test_self_send_is_delivered_exactly_once(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        sent = message()
        backend.call(lambda: node.send(0, sent))
        backend.advance(50.0)
        assert node.handled == [(0, sent)]

    def test_broadcast_without_self_skips_the_local_node(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        before = backend.network.stats.messages_sent
        backend.call(lambda: node.broadcast(message(), include_self=False))
        backend.advance(50.0)
        assert node.handled == []
        assert backend.network.stats.messages_sent == before + 2

    def test_broadcast_counts_a_send_per_destination(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        before = backend.network.stats.messages_sent
        sent = message()
        backend.call(lambda: node.broadcast(sent))
        backend.advance(50.0)
        assert backend.network.stats.messages_sent == before + 3
        assert node.handled == [(0, sent)]

    def test_start_is_idempotent(self, backend):
        transport = backend.nodes[0].transport
        backend.call(lambda: transport.start())
        backend.call(lambda: transport.start())

    def test_sends_after_close_are_silent_noops(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        backend.call(lambda: node.transport.close())
        backend.call(lambda: node.transport.close())  # idempotent
        before = backend.network.stats.messages_sent
        backend.call(lambda: node.send(0, message()))
        backend.call(lambda: node.broadcast(message()))
        backend.advance(50.0)
        assert node.handled == []
        assert backend.network.stats.messages_sent == before

    def test_a_crashed_node_sends_nothing(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        backend.call(node.crash)
        backend.call(lambda: node.send(0, message()))
        backend.call(lambda: node.broadcast(message()))
        backend.advance(50.0)
        assert backend.network.stats.messages_sent == 0


class AbsorbingFilter:
    """Fault-filter double: swallows everything that is not self-addressed."""

    def __init__(self) -> None:
        self.offered = []

    def intercept(self, src: int, dst: int, message: object) -> bool:
        self.offered.append((src, dst, message))
        return src != dst


class TestOnePathOutOfASimulatedReplica:
    """A filter, a batching policy or a close() that arrives *after* traffic
    has flowed governs the very next ``node.send`` and ``node.broadcast``.

    These are the state changes at which any shortcut around
    ``Transport.send`` cached by the node would go stale; with one path out
    of a replica the invariant is structural, and this pins it.
    """

    def warmed_up(self):
        backend = SimulatorBackend()
        backend.nodes[0].send(1, "warm-up")
        backend.nodes[0].broadcast("warm-up")
        backend.advance(50.0)
        assert [m for _, m in backend.nodes[1].handled] == ["warm-up", "warm-up"]
        for node in backend.nodes:
            node.handled.clear()
        return backend

    def test_fault_filter_installed_after_traffic(self):
        backend = self.warmed_up()
        sender = backend.nodes[0]
        faults = AbsorbingFilter()
        sender.transport.install_fault_filter(faults)
        sender.send(1, "unicast")
        sender.broadcast("fan-out")
        backend.advance(50.0)
        assert faults.offered == [(0, 1, "unicast"), (0, 0, "fan-out"),
                                  (0, 1, "fan-out"), (0, 2, "fan-out")]
        assert sender.handled == [(0, "fan-out")]
        assert backend.nodes[1].handled == backend.nodes[2].handled == []

    def test_batching_enabled_after_traffic(self):
        backend = self.warmed_up()
        sender = backend.nodes[0]
        sender.enable_batching(BatchingConfig(window_ms=5.0))
        before = backend.network.stats.messages_sent
        sender.send(1, "unicast")
        sender.broadcast("fan-out")
        # Only the self-addressed copy went out; the rest wait for the window.
        assert backend.network.stats.messages_sent == before + 1
        backend.advance(50.0)
        # One batch per remote destination.
        assert backend.network.stats.messages_sent == before + 3
        assert backend.nodes[1].handled == [(0, "unicast"), (0, "fan-out")]
        assert backend.nodes[2].handled == [(0, "fan-out")]

    def test_close_after_traffic(self):
        backend = self.warmed_up()
        sender = backend.nodes[0]
        sender.transport.close()
        before = backend.network.stats.messages_sent
        sender.send(1, "unicast")
        sender.broadcast("fan-out")
        backend.advance(50.0)
        assert backend.network.stats.messages_sent == before
        assert all(node.handled == [] for node in backend.nodes)


class TestAsyncioSpecifics:
    """Socket-only behaviours outside the shared contract."""

    def test_unreachable_peer_counts_a_drop(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            backend.call(lambda: node.transport.start())
            backend.call(lambda: node.transport.send(1, message()))
            assert backend.network.stats.messages_dropped == 1
        finally:
            backend.close()

    def test_peer_network_rejects_foreign_registrations(self):
        backend = AsyncioBackend()
        try:
            class Foreign:
                node_id = 2
                crashed = False

            with pytest.raises(ValueError):
                backend.network.register(Foreign())
        finally:
            backend.close()

    def test_a_wall_clock_built_outside_a_running_loop_fails_at_construction(self):
        with pytest.raises(RuntimeError, match="no running event loop"):
            WallClock(seed=1)

    def test_batching_is_rejected(self):
        backend = AsyncioBackend()
        try:
            with pytest.raises(NotImplementedError):
                backend.nodes[0].enable_batching(BatchingConfig())
        finally:
            backend.close()

    def test_a_peers_message_is_handled_inline_and_a_self_send_one_turn_later(self):
        """A socket callback is never inside a handler and TCP has no simulated
        CPU to queue on, so a peer's message is dispatched before
        ``deliver_local`` returns; a self-send is issued from inside a handler
        and stays deferred."""
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            handled_on_return = []

            def deliver(src):
                backend.network.deliver_local(src, message())
                handled_on_return.append(list(node.handled))

            backend.call(lambda: deliver(1))
            assert handled_on_return == [[(1, message())]]
            backend.call(lambda: deliver(0))
            assert handled_on_return[1] == [(1, message())]
            backend.advance(0.0)
            assert node.handled == [(1, message()), (0, message())]
            assert node.messages_handled == 2
            assert backend.network.stats.messages_delivered == 2
        finally:
            backend.close()

    def test_a_handler_that_broadcasts_to_itself_is_never_re_entered(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            depths = []

            def handle(src, received):
                depths.append(node.depth)
                node.depth += 1
                if len(depths) < 4:
                    node.broadcast(received, include_self=True)
                node.depth -= 1

            node.depth = 0
            node.handle_message = handle
            backend.call(lambda: node.transport.start())
            backend.call(lambda: backend.network.deliver_local(1, message()))
            backend.advance(20.0)
            assert depths == [0, 0, 0, 0]
        finally:
            backend.close()

    def test_a_crashed_node_handles_nothing_from_a_peer_or_from_itself(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            backend.call(node.crash)
            backend.call(lambda: backend.network.deliver_local(1, message()))
            backend.call(lambda: backend.network.deliver_local(0, message()))
            backend.advance(20.0)
            assert node.handled == [] and node.messages_handled == 0
            assert backend.network.stats.messages_to_crashed == 2
            assert backend.network.stats.messages_delivered == 0
        finally:
            backend.close()
