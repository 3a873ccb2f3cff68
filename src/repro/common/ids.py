"""Identifiers for nodes, clusters, clients and transactions.

The simulated system addresses every participant with a small, hashable,
immutable identifier.  Replica identifiers carry their partition so that the
latency model can distinguish intra-cluster from inter-cluster links without
a lookup table.

Node identifiers are ``typing.NamedTuple``s: every message hashes and
compares a handful of them (link keys, routing tables, quorum and member
sets, memo keys), and a tuple does that in C where a frozen dataclass runs a
generated ``__hash__``/``__eq__`` in bytecode.  A node id hashes as the plain
tuple of its fields — the value the dataclass form had — so set and dict
iteration orders, and with them every run fingerprint, do not depend on the
representation.  The price is that an id also *is* a tuple: it equals a bare
tuple of the same fields, and code that treats tuples as sequences must
refuse ids by name (``stable_encode`` does).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Union, get_args

#: Partition index (``0 .. num_partitions - 1``).
PartitionId = int

#: Monotonically increasing batch index within one partition's SMR log.
BatchNumber = int

#: Sentinel batch number meaning "no dependency" / "nothing committed yet".
NO_BATCH: BatchNumber = -1


class ReplicaId(NamedTuple):
    """Address of one replica inside one partition's cluster."""

    partition: PartitionId
    index: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"P{self.partition}/R{self.index}"


class ClientId(NamedTuple):
    """Address of a client process."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"client:{self.name}"


class EdgeProxyId(NamedTuple):
    """Address of one untrusted edge read-proxy node (``repro.edge``)."""

    index: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"edge:{self.index}"


#: Anything that can send or receive messages on the simulated network.
NodeId = Union[ReplicaId, ClientId, EdgeProxyId]
#: The same, for ``isinstance``.
NODE_ID_TYPES = get_args(NodeId)


class TxnIdGenerator:
    """Generates unique transaction identifiers for one client.

    Identifiers embed the client name so that two clients never collide, and
    a per-client counter so that ordering by identifier is meaningful in
    logs and tests.
    """

    def __init__(self, owner: str) -> None:
        self._owner = owner
        self._counter = itertools.count()

    def next(self) -> str:
        """Return a fresh transaction identifier."""
        return f"{self._owner}#{next(self._counter)}"


def leader_of(partition: PartitionId, view: int = 0, cluster_size: int = 4) -> ReplicaId:
    """Return the replica acting as leader of ``partition`` in ``view``.

    Leader selection is round-robin over the cluster members, the standard
    PBFT rule ``leader = view mod cluster_size``.
    """
    return ReplicaId(partition, view % cluster_size)
