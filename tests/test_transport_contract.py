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
from repro.net.transport import PeerNetwork, ReconnectPolicy
from repro.net.wire import Hello
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from tests.conftest import lan_topology


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
        self.network = Network(self.sim, lan_topology(3), NetworkConfig())
        self.nodes = [RecordingNode(i, self.sim, self.network, cost_model=None) for i in range(3)]

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
        self.network = PeerNetwork(clock, 0, peers, ReconnectPolicy())
        self.nodes = [RecordingNode(0, clock, self.network, cost_model=None)]

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
        assert list(backend.network.node_ids) == [0, 1, 2]

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
    """A fault filter that arrives *after* traffic has flowed governs the
    very next ``node.send`` and ``node.broadcast``.

    This is the state change at which any shortcut around ``Transport.send``
    cached by the node would go stale; with one path out of a replica the
    invariant is structural, and this pins it.
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


class TestAsyncioSpecifics:
    """Socket-only behaviours outside the shared contract."""

    def test_sends_after_close_are_silent_noops(self):
        backend = AsyncioBackend()
        try:
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
        finally:
            backend.close()

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


class TestSelfSendBursts:
    """Over sockets a replica's messages to itself queue in send order, and one
    event-loop callback delivers every self-send queued before it runs."""

    def test_self_sends_are_delivered_in_send_order(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            sent = [Hello(sender=index, role=0) for index in range(5)]

            def burst():
                for message in sent:
                    node.send(0, message)

            backend.call(burst)
            backend.advance(0.0)
            assert node.handled == [(0, message) for message in sent]
        finally:
            backend.close()

    def test_a_self_send_made_in_a_handler_runs_after_the_handler_returns(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            events = []

            def handle(src, received):
                events.append(("enter", received.sender))
                if received.sender < 3:
                    node.send(0, Hello(sender=received.sender + 1, role=0))
                    node.send(0, Hello(sender=received.sender + 10, role=0))
                events.append(("return", received.sender))

            node.handle_message = handle
            backend.call(lambda: backend.network.deliver_local(1, Hello(sender=0, role=0)))
            backend.advance(20.0)
            assert events == [("enter", 0), ("return", 0),
                              ("enter", 1), ("return", 1), ("enter", 10), ("return", 10),
                              ("enter", 2), ("return", 2), ("enter", 11), ("return", 11),
                              ("enter", 3), ("return", 3), ("enter", 12), ("return", 12)]
        finally:
            backend.close()

    def test_a_burst_of_self_sends_costs_one_loop_callback(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            scheduled = []
            call_soon = backend.loop.call_soon

            def spy(callback, *args, **kwargs):
                scheduled.append(callback)
                return call_soon(callback, *args, **kwargs)

            def burst():
                backend.loop.call_soon = spy
                try:
                    for _ in range(7):
                        node.send(0, message())
                    node.broadcast(message())
                finally:
                    del backend.loop.call_soon

            backend.call(burst)
            assert scheduled == [backend.network._deliver_self_sends]
            backend.advance(0.0)
            assert len(node.handled) == 8 and node.messages_handled == 8
        finally:
            backend.close()

    @pytest.mark.parametrize("stop", ["crash", "close"])
    def test_crash_and_close_drop_the_queue_and_a_restart_does_not_bring_it_back(
            self, stop):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]

            def send_then_stop():
                node.send(0, message())
                node.broadcast(message())
                if stop == "crash":
                    node.crash()
                    node.restart()
                else:
                    node.transport.close()

            backend.call(send_then_stop)
            backend.advance(20.0)
            assert node.handled == [] and node.messages_handled == 0
            if stop == "crash":
                # The restarted replica's own next self-send is delivered, alone.
                backend.call(lambda: node.send(0, Hello(sender=9, role=0)))
                backend.advance(0.0)
                assert node.handled == [(0, Hello(sender=9, role=0))]
        finally:
            backend.close()
