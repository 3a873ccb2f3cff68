"""Generator-based processes for client-side workflows.

Client logic (run a transaction: read, buffer writes, commit, wait) is much
easier to read as straight-line code than as a hand-written state machine.
:class:`ProcessNode` lets a node run Python generators as simulated
processes: the generator ``yield``s *operations* and the framework resumes it
when the operation completes.

Supported operations:

* :class:`Call` — send a request to one node and wait for the correlated
  reply (optionally bounded by a timeout, in which case ``None`` is
  returned).
* :class:`Gather` — issue several calls in parallel and resume once every
  reply is in or the gather's timeout passes; the result is a list of replies
  aligned with the calls, with ``None`` for replies that never arrived and
  :data:`REFUSED` for malformed ones.
* :class:`Sleep` — advance simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.common.ids import NodeId
from repro.simnet.messages import Message, ReplyMessage, RequestMessage
from repro.simnet.node import SimEnvironment, SimNode


@dataclass
class Call:
    """Send ``request`` to ``dst`` and wait for the correlated reply."""

    dst: NodeId
    request: RequestMessage
    timeout_ms: Optional[float] = None


@dataclass
class Gather:
    """Issue ``calls`` in parallel; wait until every reply is in or
    ``timeout_ms`` passes (a call's own timeout applies only to a lone call)."""

    calls: Sequence[Call]
    timeout_ms: Optional[float] = None


@dataclass
class Sleep:
    """Pause the process for ``delay_ms`` of simulated time."""

    delay_ms: float


#: A process body: a generator that yields operations and receives results.
ProcessBody = Generator[object, object, object]


#: What a waiting process receives in place of a reply that
#: ``SimNode.receive`` found malformed: an answer of no reply type, so no
#: waiter asks a reply's shape again.
REFUSED = object()


@dataclass
class _Wait:
    process: "Process"
    replies: List[object]
    remaining_ids: Dict[str, int] = field(default_factory=dict)
    single: bool = False
    finished: bool = False
    timer = None


class Process:
    """A running generator process hosted by a :class:`ProcessNode`.

    ``span`` is the process's causal-tracing context (repro.obs): requests
    the process issues are stamped with it, so several concurrent driver
    processes on one client node each propagate their *own* transaction's
    trace.  It is inherited from whatever span was current at spawn time
    (e.g. an edge proxy spawning a serve process from a traced handler) and
    replaced by client workflows when they open a transaction's root span.
    """

    def __init__(self, node: "ProcessNode", body: ProcessBody, name: str = "") -> None:
        self.node = node
        self.body = body
        self.name = name or f"proc@{node.node_id}"
        self.finished = False
        self.result: object = None
        self.span = node._current_span

    def start(self) -> None:
        self._advance(None)

    def _advance(self, value: object) -> None:
        if self.finished:
            return
        # Generator code runs with this process's span current, so direct
        # sends from workflow bodies (complaint broadcasts, lock releases)
        # carry the transaction's context; save/restore because a resume can
        # happen from inside another message's traced dispatch.
        node = self.node
        previous_span = node._current_span
        previous_process = node._active_process
        node._current_span = self.span
        node._active_process = self
        try:
            try:
                operation = self.body.send(value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                node.on_process_finished(self)
                return
            node._execute_operation(self, operation)
        finally:
            node._current_span = previous_span
            node._active_process = previous_process


class ProcessNode(SimNode):
    """A node able to run generator processes and correlate replies."""

    def __init__(self, node_id: NodeId, env: SimEnvironment) -> None:
        super().__init__(node_id, env)
        self._waits_by_request: Dict[str, _Wait] = {}
        self._active_process: Optional[Process] = None
        self.register_handler(ReplyMessage, self._on_reply)

    # -- public API --------------------------------------------------------

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process running ``body`` immediately."""
        process = Process(self, body, name=name)
        # Start on the event loop so that spawning from setup code and from
        # running handlers behaves the same way.
        self.schedule(0.0, process.start)
        return process

    def on_process_finished(self, process: Process) -> None:
        """Hook for subclasses (e.g. workload drivers chaining transactions)."""

    def on_request_settled(self, request_id: str) -> None:
        """Hook: nothing waits on ``request_id`` any more (answered or given up)."""

    # -- operation execution ------------------------------------------------

    def _execute_operation(self, process: Process, operation: object) -> None:
        if isinstance(operation, Call):
            self._execute_gather(process, Gather([operation], timeout_ms=operation.timeout_ms), single=True)
        elif isinstance(operation, Gather):
            self._execute_gather(process, operation, single=False)
        elif isinstance(operation, Sleep):
            self.schedule(operation.delay_ms, process._advance, None)
        else:
            raise SimulationError(
                f"process {process.name} yielded unsupported operation {operation!r}"
            )

    def _execute_gather(self, process: Process, gather: Gather, single: bool) -> None:
        calls = list(gather.calls)
        if not calls:
            process._advance(None if single else [])
            return
        wait = _Wait(process=process, replies=[None] * len(calls), single=single)
        for index, call in enumerate(calls):
            request_id = call.request.request_id
            if request_id in self._waits_by_request:
                raise SimulationError(f"duplicate request id {request_id}")
            wait.remaining_ids[request_id] = index
            self._waits_by_request[request_id] = wait
            self.send(call.dst, call.request)
        if gather.timeout_ms is not None:
            wait.timer = self.schedule(gather.timeout_ms, self._finish_wait, wait)

    def _on_reply(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, ReplyMessage)
        self._settle(message, src, message)

    def refuse(self, message: Message, src: NodeId) -> None:
        """A malformed reply still settles its wait, as :data:`REFUSED`: only
        the waiter knows what a bad answer means (ask the next member, count a
        failed verification, blacklist a proxy)."""
        if isinstance(message, ReplyMessage):
            self._settle(message, src, REFUSED)
        else:
            super().refuse(message, src)

    def _settle(self, message: ReplyMessage, src: NodeId, answer: object) -> None:
        """Resume the wait on ``message.request_id`` with ``answer``."""
        if type(message.request_id) is not str:
            # Any node can send anything: an unhashable id would raise out of
            # the lookup below, and no wait is keyed by a non-string anyway.
            SimNode.refuse(self, message, src)
            return
        wait = self._waits_by_request.pop(message.request_id, None)
        if wait is None or wait.finished:
            return
        self.on_request_settled(message.request_id)
        index = wait.remaining_ids.pop(message.request_id)
        wait.replies[index] = answer
        if not wait.remaining_ids:
            self._finish_wait(wait)

    def _finish_wait(self, wait: _Wait) -> None:
        if wait.finished:
            return
        wait.finished = True
        if wait.timer is not None:
            wait.timer.cancel()
            wait.timer = None
        for request_id in list(wait.remaining_ids):
            self._waits_by_request.pop(request_id, None)
            self.on_request_settled(request_id)
        wait.remaining_ids.clear()
        if wait.single:
            wait.process._advance(wait.replies[0])
        else:
            wait.process._advance(list(wait.replies))
