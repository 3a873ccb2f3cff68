"""Value-level types shared by the storage, core and baseline packages.

The library stores opaque string keys mapped to byte values.  Reads carry the
batch number in which the returned value became visible — this is the version
used by optimistic concurrency control validation (Definition 3.1 in the
paper) and by the snapshot read-only protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.common.ids import NO_BATCH, BatchNumber

#: Database key.  Keys are opaque strings; the partitioner hashes them.
Key = str

#: Database value.  Values are stored as ``bytes``.
Value = bytes


class MemoisedValue:
    """Base of the frozen dataclasses that memoise derived facts on the instance.

    A ``cached_property`` lives in the instance ``__dict__`` beside the
    dataclass fields, so a plain ``copy.copy``/``copy.deepcopy``/``pickle``
    round-trip would carry it along — and a byzantine sender is modelled as
    "deep-copy the honest object, then mutate the copy".  A copy made through
    this state holds the dataclass fields and nothing else: whatever was
    derived from them is derived again.  (``dataclasses.replace`` goes through
    ``__init__`` and never saw the memos.)
    """

    __slots__ = ()

    def __getstate__(self) -> dict:
        state = self.__dict__
        return {name: state[name] for name in self.__dataclass_fields__}


def as_value(data: "bytes | str") -> Value:
    """Coerce ``data`` to the canonical value representation (``bytes``)."""
    if isinstance(data, bytes):
        return data
    return data.encode("utf-8")


class TxnStatus(enum.Enum):
    """Lifecycle of a transaction as observed by the client."""

    PENDING = "pending"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TxnKind(enum.Enum):
    """Classification used by the workload generator and the metrics layer."""

    LOCAL_WRITE_ONLY = "local-write-only"
    LOCAL_READ_WRITE = "local-read-write"
    DISTRIBUTED_READ_WRITE = "distributed-read-write"
    READ_ONLY = "read-only"


@dataclass(frozen=True)
class VersionedValue:
    """A value together with the batch number in which it became visible."""

    value: Value
    version: BatchNumber = NO_BATCH

    def is_initial(self) -> bool:
        """True when the value pre-dates every batch (database preload)."""
        return self.version == NO_BATCH


@dataclass(frozen=True)
class ReadOnlyResult:
    """Result of a snapshot read-only transaction.

    ``values`` maps each requested key to the value observed in the snapshot
    (``None`` when the key has never been written).  ``rounds`` records how
    many protocol rounds were needed (1 or 2); ``latency_ms`` is simulated
    end-to-end latency and ``round2_latency_ms`` the part contributed by the
    second round, matching the split reported in Figure 5 of the paper.
    ``served_by_edge`` is True when round 1 was answered by an edge proxy's
    verified cache instead of the core clusters (``repro.edge``).
    """

    txn_id: str
    values: Mapping[Key, Optional[Value]]
    versions: Mapping[Key, BatchNumber]
    rounds: int
    latency_ms: float
    round2_latency_ms: float = 0.0
    verified: bool = True
    served_by_edge: bool = False


@dataclass(frozen=True)
class CommitResult:
    """Outcome of a read-write transaction submitted for commitment."""

    txn_id: str
    status: TxnStatus
    commit_batch: BatchNumber = NO_BATCH
    latency_ms: float = 0.0
    abort_reason: str = ""

    @property
    def committed(self) -> bool:
        return self.status is TxnStatus.COMMITTED
