"""Tests for repro.common.types and repro.common.ids."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.common.ids import (
    NO_BATCH,
    ClientId,
    EdgeProxyId,
    ReplicaId,
    TxnIdGenerator,
    leader_of,
)
from repro.common.types import (
    CommitResult,
    TxnStatus,
    VersionedValue,
    as_value,
)


class TestIds:
    def test_replica_id_is_hashable_and_ordered(self):
        a = ReplicaId(0, 1)
        b = ReplicaId(0, 2)
        c = ReplicaId(1, 0)
        assert a < b < c
        assert len({a, b, c, ReplicaId(0, 1)}) == 3

    def test_replica_id_str(self):
        assert str(ReplicaId(2, 3)) == "P2/R3"

    def test_client_id_str(self):
        assert str(ClientId("w1")) == "client:w1"

    def test_hashes_are_the_field_tuple_hashes(self):
        # Load-bearing: set/dict iteration order over ids — and therefore
        # every run fingerprint — follows from these values.
        assert hash(ReplicaId(3, 5)) == hash((3, 5))
        assert hash(ClientId("w1")) == hash(("w1",))
        assert hash(EdgeProxyId(2)) == hash((2,))

    def test_ids_of_different_kinds_are_distinct_keys(self):
        ids = [ReplicaId(0, 0), ReplicaId(0, 1), ClientId("0"), ClientId("c"), EdgeProxyId(0), EdgeProxyId(1)]
        assert len(set(ids)) == len(ids)
        table = {node_id: position for position, node_id in enumerate(ids)}
        assert [table[node_id] for node_id in ids] == list(range(len(ids)))
        for position, node_id in enumerate(ids):
            assert all(node_id != other for other in ids[:position] + ids[position + 1:])

    def test_ordering_follows_the_fields(self):
        replicas = [ReplicaId(1, 0), ReplicaId(0, 2), ReplicaId(0, 1)]
        assert sorted(replicas) == [ReplicaId(0, 1), ReplicaId(0, 2), ReplicaId(1, 0)]
        assert sorted([ClientId("b"), ClientId("a")]) == [ClientId("a"), ClientId("b")]
        assert max(EdgeProxyId(2), EdgeProxyId(10)) == EdgeProxyId(10)
        with pytest.raises(TypeError):
            sorted([ClientId("a"), ReplicaId(0, 0)])

    def test_str_and_repr(self):
        assert str(EdgeProxyId(4)) == "edge:4"
        assert f"{ReplicaId(2, 3)}|{ClientId('w1')}" == "P2/R3|client:w1"
        assert repr(ReplicaId(2, 3)) == "ReplicaId(partition=2, index=3)"
        assert repr(ClientId("w1")) == "ClientId(name='w1')"
        assert repr(EdgeProxyId(4)) == "EdgeProxyId(index=4)"

    def test_ids_are_immutable(self):
        for node_id, name in ((ReplicaId(0, 1), "index"), (ClientId("c"), "name"), (EdgeProxyId(0), "index")):
            with pytest.raises(AttributeError):
                setattr(node_id, name, 9)
            with pytest.raises(AttributeError):
                node_id.extra = 1

    @pytest.mark.parametrize("node_id", [ReplicaId(4, 6), ClientId("reader-1"), EdgeProxyId(3)])
    def test_ids_survive_pickle_and_deepcopy(self, node_id):
        # Fleet workers receive plans and return reports through pickle.
        for clone in (pickle.loads(pickle.dumps(node_id)), copy.deepcopy(node_id), copy.copy(node_id)):
            assert clone == node_id
            assert type(clone) is type(node_id)
            assert hash(clone) == hash(node_id)
            assert str(clone) == str(node_id)

    @pytest.mark.parametrize("node_id", [ReplicaId(0, 1), ClientId("c"), EdgeProxyId(0)])
    def test_stable_encode_refuses_node_ids(self, node_id):
        # An id is a tuple subclass; it must not be signed as a bare sequence.
        from repro.crypto.hashing import stable_encode

        with pytest.raises(TypeError):
            stable_encode(node_id)
        with pytest.raises(TypeError):
            stable_encode({"from": [node_id]})

    def test_txn_id_generator_unique_and_prefixed(self):
        gen = TxnIdGenerator("clientA")
        first, second = gen.next(), gen.next()
        assert first != second
        assert first.startswith("clientA#")

    def test_txn_ids_from_different_clients_never_collide(self):
        a = TxnIdGenerator("a")
        b = TxnIdGenerator("b")
        assert {a.next() for _ in range(10)}.isdisjoint({b.next() for _ in range(10)})

    def test_leader_of_rotates_with_view(self):
        assert leader_of(0, view=0, cluster_size=4) == ReplicaId(0, 0)
        assert leader_of(0, view=1, cluster_size=4) == ReplicaId(0, 1)
        assert leader_of(0, view=4, cluster_size=4) == ReplicaId(0, 0)
        assert leader_of(3, view=2, cluster_size=7) == ReplicaId(3, 2)


class TestValueTypes:
    def test_as_value_accepts_str_and_bytes(self):
        assert as_value("abc") == b"abc"
        assert as_value(b"xyz") == b"xyz"

    def test_versioned_value_initial(self):
        assert VersionedValue(b"v").is_initial()
        assert not VersionedValue(b"v", version=3).is_initial()

    def test_commit_result_committed_property(self):
        ok = CommitResult(txn_id="t", status=TxnStatus.COMMITTED, commit_batch=4)
        aborted = CommitResult(txn_id="t", status=TxnStatus.ABORTED)
        assert ok.committed
        assert not aborted.committed
        assert aborted.commit_batch == NO_BATCH
