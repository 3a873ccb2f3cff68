"""Base message classes and request/reply correlation helpers.

Protocol packages (``repro.bft``, ``repro.core``, ``repro.baselines``) define
their concrete messages as dataclasses deriving from :class:`Message`.
Client-side workflows use the request/reply pair: a :class:`RequestMessage`
carries a unique ``request_id`` that the responder copies into its
:class:`ReplyMessage`, which is how the process framework in
:mod:`repro.simnet.proc` resumes a waiting client coroutine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
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

    trace: "Optional[TraceContext]" = field(
        default=None, kw_only=True, compare=False, repr=False
    )

    @property
    def type_name(self) -> str:
        """Short name used for dispatch and network statistics."""
        return type(self).__name__

    def well_formed(self) -> bool:
        """Do the fields have the declared shape?  ``SimNode.receive`` asks every
        arriving message once; a type that declares fields answers for them."""
        return True


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
