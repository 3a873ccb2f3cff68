"""Base message classes and request/reply correlation helpers.

Protocol packages (``repro.bft``, ``repro.core``, ``repro.baselines``) define
their concrete messages as dataclasses deriving from :class:`Message`.
Client-side workflows use the request/reply pair: a :class:`RequestMessage`
carries a unique ``request_id`` that the responder copies into its
:class:`ReplyMessage`, which is how the process framework in
:mod:`repro.simnet.proc` resumes a waiting client coroutine.

A message's shape is its annotations: :meth:`Message.well_formed` derives
the one check ``SimNode.receive`` asks of every arriving message from the
resolved field types (:mod:`repro.common.shapes`); no type writes its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.common.shapes import conforms, fields_check
from repro.obs.trace import TraceContext


@dataclass
class Message:
    """Base class of every simulated network message.

    ``trace`` is the causal-tracing context (:mod:`repro.obs`) the message
    carries from sender to receiver.  It is excluded from equality and repr
    so protocol semantics are untouched; when tracing is disabled it stays
    ``None`` and costs nothing.  Re-sent messages (client failover re-uses
    request objects) keep their original context — same transaction, same
    trace.
    """

    trace: Optional[TraceContext] = field(
        default=None, kw_only=True, compare=False, repr=False
    )

    @property
    def type_name(self) -> str:
        """Short name used for dispatch and network statistics."""
        return type(self).__name__

    def well_formed(self) -> bool:
        """Does every field have its declared shape, down to the primitives?
        ``SimNode.receive`` asks every arriving message once; the answer is
        derived from the annotations (:mod:`repro.common.shapes`)."""
        try:
            return fields_check(type(self))(self)
        except RecursionError:  # a cyclic or too deep object graph
            return False

    def trace_context(self) -> Optional[TraceContext]:
        """``trace`` when it is a well-formed context, else ``None``.  Spans and
        network events read it before (or without) the shape check, and any
        sender can put anything there."""
        trace = self.trace
        return trace if conforms(trace, TraceContext) else None


_request_counter = itertools.count()


def next_request_id() -> str:
    """Return a process-unique request identifier."""
    return f"req-{next(_request_counter)}"


@dataclass
class RequestMessage(Message):
    """A message that expects a correlated reply."""

    request_id: str = field(default_factory=next_request_id, kw_only=True)


@dataclass
class ReplyMessage(Message):
    """A message answering a prior :class:`RequestMessage`."""

    request_id: str = field(kw_only=True)
