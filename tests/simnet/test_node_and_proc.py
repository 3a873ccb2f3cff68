"""Tests for SimNode dispatch/queueing and generator-based processes."""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.common.config import CostConfig, LatencyConfig
from repro.common.errors import SimulationError
from repro.common.ids import ClientId, ReplicaId
from repro.simnet.messages import Message, ReplyMessage, RequestMessage
from repro.simnet.node import SimEnvironment, SimNode
from repro.simnet.proc import REFUSED, Call, Gather, ProcessNode, Sleep


@dataclass
class Echo(RequestMessage):
    text: str = ""


@dataclass
class EchoReply(ReplyMessage):
    text: str = ""


@dataclass
class CheckedEchoReply(ReplyMessage):
    text: str = ""

    def well_formed(self) -> bool:
        return isinstance(self.text, str)


@dataclass
class Note(Message):
    text: str = ""


class EchoServer(SimNode):
    """Replies to Echo requests, optionally only after several are ignored."""

    def __init__(self, node_id, env, ignore_first: int = 0, reply_cost: float = 0.0):
        super().__init__(node_id, env)
        self.ignore_remaining = ignore_first
        self.reply_cost = reply_cost
        self.register_handler(Echo, self._on_echo)

    def processing_cost_ms(self, message):
        return self.reply_cost

    def _on_echo(self, message, src):
        if self.ignore_remaining > 0:
            self.ignore_remaining -= 1
            return
        self.send(src, EchoReply(text=message.text.upper(), request_id=message.request_id))


class NoteTaker(SimNode):
    def __init__(self, node_id, env):
        super().__init__(node_id, env)
        self.notes: List[str] = []
        self.register_handler(Note, lambda m, s: self.notes.append(m.text))


def fast_env(**latency_kwargs) -> SimEnvironment:
    from repro.common.config import SystemConfig

    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        latency=LatencyConfig(jitter_fraction=0.0, **latency_kwargs),
    )
    return SimEnvironment(config)


class TestSimNodeDispatch:
    def test_registered_handler_receives_message(self):
        env = fast_env()
        taker = NoteTaker(ReplicaId(0, 0), env)
        sender = NoteTaker(ReplicaId(0, 1), env)
        sender.send(taker.node_id, Note(text="hello"))
        env.simulator.run_until_idle()
        assert taker.notes == ["hello"]

    def test_unhandled_message_is_refused(self):
        # A message sent to a node of the wrong role: refused, never raised.
        env = fast_env()
        node = SimNode(ReplicaId(0, 0), env)
        other = SimNode(ReplicaId(0, 1), env)
        other.send(node.node_id, Note(text="x"))
        env.simulator.run_until_idle()
        (event,) = env.obs.recorder.events_of_kind("malformed-message")
        assert (event.node, event.detail) == (
            str(node.node_id), {"type": "Note", "from": str(other.node_id)}
        )

    def test_handler_lookup_falls_back_to_base_class(self):
        env = fast_env()

        class CatchAll(SimNode):
            def __init__(self, node_id, env):
                super().__init__(node_id, env)
                self.seen = []
                self.register_handler(Message, lambda m, s: self.seen.append(m))

        catcher = CatchAll(ReplicaId(0, 0), env)
        sender = SimNode(ReplicaId(0, 1), env)
        sender.send(catcher.node_id, Note(text="x"))
        env.simulator.run_until_idle()
        assert len(catcher.seen) == 1

    def test_messages_queue_behind_processing_cost(self):
        env = fast_env()

        class SlowNode(SimNode):
            def __init__(self, node_id, env):
                super().__init__(node_id, env)
                self.handled_at = []
                self.register_handler(Note, lambda m, s: self.handled_at.append(self.now))

            def processing_cost_ms(self, message):
                return 10.0

        slow = SlowNode(ReplicaId(0, 0), env)
        sender = SimNode(ReplicaId(0, 1), env)
        for _ in range(3):
            sender.send(slow.node_id, Note(text="x"))
        env.simulator.run_until_idle()
        assert len(slow.handled_at) == 3
        # Handlers complete 10ms apart because the node is a single server.
        gaps = [b - a for a, b in zip(slow.handled_at, slow.handled_at[1:])]
        assert all(gap == pytest.approx(10.0) for gap in gaps)

    def test_occupy_delays_subsequent_messages(self):
        env = fast_env()
        taker = NoteTaker(ReplicaId(0, 0), env)
        sender = SimNode(ReplicaId(0, 1), env)
        taker.occupy(50.0)
        sender.send(taker.node_id, Note(text="queued"))
        env.simulator.run_until_idle()
        assert env.simulator.now >= 50.0
        assert taker.notes == ["queued"]

    def test_forged_transport_fields_never_escape_the_event_loop(self):
        # Boundary robustness: a byzantine peer controls every field of the
        # transport messages it sends; none may raise out of Simulator.run
        # or reach a protocol handler.
        from repro.simnet.reliable import ReliableAck, ReliableEnvelope

        env = fast_env()
        taker = NoteTaker(ReplicaId(0, 0), env)
        peer = NoteTaker(ReplicaId(0, 1), env)
        taker.send(peer.node_id, Note(text="real"))
        forgeries = [
            ReliableAck(ack=10**9),
            ReliableAck(ack="x"),
            ReliableEnvelope(payload=Note(text="forged"), seq="1"),
            ReliableEnvelope(payload=None, seq=1),
        ]
        for forged in forgeries:
            env.simulator.schedule_call(0.1, taker.receive, forged, peer.node_id)
        env.simulator.run_until_idle()
        assert (taker.notes, peer.notes) == ([], ["real"])
        assert len(env.obs.recorder.events_of_kind("malformed-transport-field")) == len(forgeries)
        assert env.reliability.in_flight() == 0
        assert env.reliability.counters["messages_retransmitted"] == 0

    def test_each_node_registers_a_signer(self):
        env = fast_env()
        node = SimNode(ReplicaId(1, 2), env)
        signature = node.signer.sign("hello")
        assert env.registry.verify("hello", signature)


class TestProcesses:
    def test_call_returns_reply(self):
        env = fast_env()
        server = EchoServer(ReplicaId(0, 0), env)
        client = ProcessNode(ClientId("c1"), env)
        results = []

        def body():
            reply = yield Call(server.node_id, Echo(text="hi"))
            results.append(reply.text)

        client.spawn(body())
        env.simulator.run_until_idle()
        assert results == ["HI"]

    def test_an_answered_call_releases_its_reply_when_the_process_moves_on(self):
        # The wait's timeout timer is cancelled lazily: its heap entry stays
        # until the original 500 ms, and ``wait.timer -> handle -> args ->
        # wait`` was a cycle.  Neither may keep the reply alive — by reference
        # counting alone, the cyclic collector is off.
        env = fast_env()
        server = EchoServer(ReplicaId(0, 0), env)
        client = ProcessNode(ClientId("c1"), env)
        seen = []

        def body():
            reply = yield Call(server.node_id, Echo(text="hi"), timeout_ms=500.0)
            seen.append(weakref.ref(reply))
            del reply
            yield Sleep(1.0)  # back on the event loop: the resuming frames are gone
            seen.append((seen[0]() is None, env.simulator.now < 500.0))

        gc.collect()
        gc.disable()
        try:
            client.spawn(body())
            env.simulator.run_until_idle()
        finally:
            gc.enable()
        assert seen[1] == (True, True)

    @pytest.mark.parametrize("request_id, answer, events", [("ok", REFUSED, 0), (["x"], None, 1)])
    def test_a_malformed_reply_settles_its_wait_as_refused(self, request_id, answer, events):
        # The waiter gets REFUSED in the reply's place, so it never asks the
        # reply's shape again; a reply that names no wait is only reported.
        env = fast_env()
        server = SimNode(ReplicaId(0, 0), env)
        client = ProcessNode(ClientId("c1"), env)
        request = Echo(text="hi")
        if request_id == "ok":
            request_id = request.request_id
        server.register_handler(
            Echo, lambda m, src: server.send(src, CheckedEchoReply(text=5, request_id=request_id))
        )
        results = []

        def body():
            results.append((yield Call(server.node_id, request, timeout_ms=20.0)))

        client.spawn(body())
        env.simulator.run_until_idle()
        assert results == [answer]
        assert len(env.obs.recorder.events_of_kind("malformed-message")) == events

    def test_call_timeout_returns_none(self):
        env = fast_env()
        server = EchoServer(ReplicaId(0, 0), env, ignore_first=10)
        client = ProcessNode(ClientId("c1"), env)
        results = []

        def body():
            reply = yield Call(server.node_id, Echo(text="hi"), timeout_ms=20.0)
            results.append(reply)

        client.spawn(body())
        env.simulator.run_until_idle()
        assert results == [None]

    def test_gather_waits_for_all_by_default(self):
        env = fast_env()
        servers = [EchoServer(ReplicaId(0, i), env) for i in range(3)]
        client = ProcessNode(ClientId("c1"), env)
        results = []

        def body():
            replies = yield Gather(
                [Call(s.node_id, Echo(text=f"m{i}")) for i, s in enumerate(servers)]
            )
            results.append([r.text for r in replies])

        client.spawn(body())
        env.simulator.run_until_idle()
        assert results == [["M0", "M1", "M2"]]

    def test_sleep_advances_time(self):
        env = fast_env()
        client = ProcessNode(ClientId("c1"), env)
        times = []

        def body():
            times.append(client.now)
            yield Sleep(25.0)
            times.append(client.now)

        client.spawn(body())
        env.simulator.run_until_idle()
        assert times[1] - times[0] == pytest.approx(25.0)

    def test_sequential_transactions_in_one_process(self):
        env = fast_env()
        server = EchoServer(ReplicaId(0, 0), env)
        client = ProcessNode(ClientId("c1"), env)
        transcript = []

        def body():
            for i in range(5):
                reply = yield Call(server.node_id, Echo(text=f"txn{i}"))
                transcript.append(reply.text)

        client.spawn(body())
        env.simulator.run_until_idle()
        assert transcript == [f"TXN{i}" for i in range(5)]

    def test_process_result_and_finished_flag(self):
        env = fast_env()
        client = ProcessNode(ClientId("c1"), env)

        def body():
            yield Sleep(1.0)
            return "done"

        process = client.spawn(body())
        env.simulator.run_until_idle()
        assert process.finished
        assert process.result == "done"

    def test_unknown_yield_raises(self):
        env = fast_env()
        client = ProcessNode(ClientId("c1"), env)

        def body():
            yield 42

        client.spawn(body())
        with pytest.raises(SimulationError):
            env.simulator.run_until_idle()

    def test_late_reply_after_timeout_is_ignored(self):
        env = fast_env(client_to_cluster_ms=30.0)
        server = EchoServer(ReplicaId(0, 0), env)
        client = ProcessNode(ClientId("c1"), env)
        results = []

        def body():
            # Round trip is ~60ms but we only wait 10ms.
            reply = yield Call(server.node_id, Echo(text="slow"), timeout_ms=10.0)
            results.append(reply)
            yield Sleep(200.0)

        client.spawn(body())
        env.simulator.run_until_idle()
        assert results == [None]
