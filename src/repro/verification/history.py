"""Execution-history recording and serializability checking.

The paper proves TransEdge serializable (Theorems 3.4 and 4.5).  To check
the reproduction actually delivers that guarantee, tests record every
committed read-write transaction and every read-only result into an
:class:`ExecutionHistory` and run two independent checks:

* a **serialization-graph test**: build the conflict graph over committed
  read-write transactions (using write→read value matching and the per-key
  version order) plus the read-only transactions, and assert it is acyclic
  (networkx does the cycle detection);
* a **snapshot-consistency check**: every read-only result must equal the
  database state produced by some prefix of the per-key version order it
  observed — i.e. for every key it returns the value written by the
  transaction whose version it claims, and versions across keys must not
  observe one transaction's write while missing an earlier conflicting one
  it depends on.

Write values are assumed unique per (key, transaction) — the workload
generator guarantees this — which makes wr-edges unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.common.ids import BatchNumber
from repro.common.types import Key, Value
from repro.common.errors import VerificationError


@dataclass(frozen=True)
class CommittedTxn:
    """A committed read-write transaction as observed by the driver."""

    txn_id: str
    reads: Mapping[Key, BatchNumber]
    writes: Mapping[Key, Value]
    commit_batches: Mapping[int, BatchNumber] = field(default_factory=dict)


@dataclass(frozen=True)
class ReadOnlyObservation:
    """A read-only transaction's result as observed by the driver."""

    txn_id: str
    values: Mapping[Key, Optional[Value]]
    versions: Mapping[Key, BatchNumber]


class ExecutionHistory:
    """Accumulates committed transactions and read-only observations."""

    def __init__(self, initial_data: Optional[Mapping[Key, Value]] = None) -> None:
        self.initial_data: Dict[Key, Value] = dict(initial_data or {})
        self.committed: List[CommittedTxn] = []
        self.read_only: List[ReadOnlyObservation] = []

    # -- recording ------------------------------------------------------------

    def record_commit(
        self,
        txn_id: str,
        reads: Mapping[Key, BatchNumber],
        writes: Mapping[Key, Value],
        commit_batches: Optional[Mapping[int, BatchNumber]] = None,
    ) -> None:
        self.committed.append(
            CommittedTxn(
                txn_id=txn_id,
                reads=dict(reads),
                writes=dict(writes),
                commit_batches=dict(commit_batches or {}),
            )
        )

    def record_read_only(
        self,
        txn_id: str,
        values: Mapping[Key, Optional[Value]],
        versions: Mapping[Key, BatchNumber],
    ) -> None:
        self.read_only.append(
            ReadOnlyObservation(txn_id=txn_id, values=dict(values), versions=dict(versions))
        )

    # -- derived structures ------------------------------------------------------

    def writer_of(self) -> Dict[Tuple[Key, Value], str]:
        """Map each (key, value) to the transaction that wrote it."""
        writers: Dict[Tuple[Key, Value], str] = {}
        for txn in self.committed:
            for key, value in txn.writes.items():
                writers[(key, value)] = txn.txn_id
        return writers

    # -- checks -----------------------------------------------------------------

    def build_serialization_graph(
        self, version_order: Optional[Mapping[Key, Sequence[Value]]] = None
    ) -> nx.DiGraph:
        """Conflict graph over committed read-write + read-only transactions.

        Edges: ww (per-key order of writers), wr (writer → reader of its
        value), rw (reader → later writers of a key it read).

        ``version_order`` supplies the authoritative per-key order of values
        (e.g. extracted from a replica's multi-version store with
        :func:`version_order_from_system`); without it the recording order of
        commit acknowledgements is used as an approximation.
        """
        graph = nx.DiGraph()
        committed_by_id = {txn.txn_id: txn for txn in self.committed}
        graph.add_nodes_from(committed_by_id)

        writer_of_value = self.writer_of()

        writers_in_order: Dict[Key, List[str]] = {}
        if version_order is not None:
            for key, values in version_order.items():
                order: List[str] = []
                for value in values:
                    writer = writer_of_value.get((key, value))
                    if writer is not None and writer not in order:
                        order.append(writer)
                if order:
                    writers_in_order[key] = order
        else:
            for txn in self.committed:
                for key in txn.writes:
                    writers_in_order.setdefault(key, []).append(txn.txn_id)
        for key, writers in writers_in_order.items():
            for earlier, later in zip(writers, writers[1:]):
                if earlier != later:
                    graph.add_edge(earlier, later, kind="ww", key=key)

        # Read-only transactions: wr edge from the writer of each observed
        # value, rw edge to every later writer of the same key.
        for observation in self.read_only:
            node = f"ro:{observation.txn_id}"
            graph.add_node(node)
            for key, value in observation.values.items():
                if value is None or (key, value) not in writer_of_value:
                    # Value from the initial database state: rw edges to all
                    # writers of this key.
                    for writer in writers_in_order.get(key, []):
                        graph.add_edge(node, writer, kind="rw", key=key)
                    continue
                writer = writer_of_value[(key, value)]
                graph.add_edge(writer, node, kind="wr", key=key)
                order = writers_in_order.get(key, [])
                if writer in order:
                    for later in order[order.index(writer) + 1:]:
                        graph.add_edge(node, later, kind="rw", key=key)
        return graph

    def check_serializable(
        self, version_order: Optional[Mapping[Key, Sequence[Value]]] = None
    ) -> None:
        """Raise :class:`VerificationError` when the serialization graph has a cycle."""
        graph = self.build_serialization_graph(version_order)
        try:
            cycle = nx.find_cycle(graph, orientation="original")
        except nx.NetworkXNoCycle:
            return
        raise VerificationError(f"serialization graph contains a cycle: {cycle}")

    def check_read_only_values(self) -> None:
        """Every read-only value must be the initial value or a committed write."""
        writer_of_value = self.writer_of()
        for observation in self.read_only:
            for key, value in observation.values.items():
                if value is None:
                    continue
                if value == self.initial_data.get(key):
                    continue
                if (key, value) not in writer_of_value:
                    raise VerificationError(
                        f"read-only transaction {observation.txn_id} observed a value for "
                        f"{key!r} that no committed transaction wrote"
                    )

    def check_atomic_visibility(self, groups: Sequence[Set[Key]]) -> None:
        """Check all-or-nothing visibility of co-written key groups.

        ``groups`` lists sets of keys that are always written together by the
        workload (e.g. ``{x, y}`` in the paper's Figure 1 example).  For every
        read-only observation covering a whole group, the observed values
        must all come from the same writing transaction (or all be initial
        values) — exactly the anomaly Figure 1 shows naive Merkle reads would
        allow.
        """
        writer_of_value = self.writer_of()
        for observation in self.read_only:
            for group in groups:
                if not group <= set(observation.values):
                    continue
                writers: Set[Optional[str]] = set()
                for key in group:
                    value = observation.values[key]
                    if value is None or value == self.initial_data.get(key):
                        writers.add(None)
                    else:
                        writers.add(writer_of_value.get((key, value)))
                if len(writers) > 1:
                    # Sorted (initial state first): the message is hashed into
                    # chaos fingerprints, so it may not follow PYTHONHASHSEED.
                    ordered = sorted(writers, key=lambda writer: (writer is not None, writer or ""))
                    raise VerificationError(
                        f"read-only transaction {observation.txn_id} observed a mixed "
                        f"snapshot across co-written keys {sorted(group)}: writers {ordered}"
                    )

    def check_all(
        self,
        groups: Sequence[Set[Key]] = (),
        version_order: Optional[Mapping[Key, Sequence[Value]]] = None,
    ) -> None:
        """Run every check; raises on the first violation."""
        self.check_read_only_values()
        if groups:
            self.check_atomic_visibility(groups)
        self.check_serializable(version_order)


def version_order_from_system(system) -> Dict[Key, List[Value]]:
    """Extract the authoritative per-key value order from a running system.

    Reads the multi-version store of one (honest) replica per partition —
    the leader — and returns, for every key, its values in version order.
    Intended for tests and the benchmark harness after a run completes.
    """
    order: Dict[Key, List[Value]] = {}
    for partition in system.topology.partitions():
        replica = system.leader_replica(partition)
        for key in replica.store.keys():
            order[key] = [value for _, value in replica.store.history(key)]
    return order
