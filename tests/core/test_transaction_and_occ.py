"""Tests for transaction payloads and the OCC conflict rules (Definition 3.1)."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidTransactionError
from repro.common.ids import NO_BATCH
from repro.core.occ import (
    ConflictChecker,
    Footprint,
    KeyConflictIndex,
    stale_read_check,
)
from repro.core.transaction import TxnPayload
from repro.storage.mvstore import MultiVersionStore
from repro.storage.partitioner import HashPartitioner


@pytest.fixture
def partitioner():
    return HashPartitioner(2)


def keys_for(partitioner, partition, count, prefix="k"):
    """Deterministic keys that hash to the requested partition."""
    found = []
    index = 0
    while len(found) < count:
        key = f"{prefix}{index}"
        if partitioner.partition_of(key) == partition:
            found.append(key)
        index += 1
    return found


class TestTxnPayload:
    def test_requires_id_and_operations(self):
        with pytest.raises(InvalidTransactionError):
            TxnPayload(txn_id="", reads={"a": 0}, writes={})
        with pytest.raises(InvalidTransactionError):
            TxnPayload(txn_id="t", reads={}, writes={})

    def test_keys_union(self):
        txn = TxnPayload("t", reads={"a": 1}, writes={"b": b"x"})
        assert txn.keys() == frozenset({"a", "b"})

    def test_partitions_and_distribution(self, partitioner):
        p0_keys = keys_for(partitioner, 0, 2)
        p1_keys = keys_for(partitioner, 1, 1)
        local = TxnPayload("t1", writes={k: b"v" for k in p0_keys})
        distributed = TxnPayload(
            "t2", reads={p0_keys[0]: 0}, writes={p1_keys[0]: b"v"}
        )
        assert not local.is_distributed(partitioner)
        assert distributed.is_distributed(partitioner)
        assert distributed.partitions(partitioner) == frozenset({0, 1})

    def test_per_partition_projections(self, partitioner):
        p0 = keys_for(partitioner, 0, 1)[0]
        p1 = keys_for(partitioner, 1, 1)[0]
        txn = TxnPayload("t", reads={p0: 3}, writes={p1: b"v"})
        assert txn.reads_in(0, partitioner) == {p0: 3}
        assert txn.reads_in(1, partitioner) == {}
        assert txn.writes_in(1, partitioner) == {p1: b"v"}
        assert txn.read_keys_in(0, partitioner) == frozenset({p0})
        assert txn.write_keys_in(0, partitioner) == frozenset()

    def test_a_transaction_is_local_when_its_keys_share_a_partition(self):
        # Moved from ``HashPartitioner.is_local`` (deleted: the split answers it).
        partitioner = HashPartitioner(4)
        keys = [f"key-{i}" for i in range(100)]
        local = [k for k in keys if partitioner.partition_of(k) == 0][:3]
        assert not TxnPayload("t", writes={k: b"v" for k in local}).is_distributed(partitioner)
        assert TxnPayload("t", reads={k: 0 for k in keys[:20]}).is_distributed(partitioner)

    def test_key_sets_filter_by_partition(self):
        # Moved from ``HashPartitioner.local_keys`` (deleted: the split answers it).
        partitioner = HashPartitioner(3)
        keys = [f"key-{i}" for i in range(60)]
        txn = TxnPayload("t", reads={k: 0 for k in keys[:30]}, writes={k: b"v" for k in keys[30:]})
        for partition in range(3):
            reads = txn.read_keys_in(partition, partitioner)
            writes = txn.write_keys_in(partition, partitioner)
            assert all(partitioner.partition_of(k) == partition for k in reads | writes)
        assert sum(len(txn.read_keys_in(p, partitioner)) for p in range(3)) == 30
        assert sum(len(txn.write_keys_in(p, partitioner)) for p in range(3)) == 30

    def test_write_only_detection(self):
        assert TxnPayload("t", writes={"a": b"1"}).is_write_only()
        assert not TxnPayload("t", reads={"a": 1}, writes={"b": b"1"}).is_write_only()

    def test_payload_is_canonical(self):
        a = TxnPayload("t", reads={"a": 1, "b": 2}, writes={"c": b"x"})
        b = TxnPayload("t", reads={"b": 2, "a": 1}, writes={"c": b"x"})
        assert a.payload() == b.payload()


class TestStaleReads:
    def test_fresh_read_passes(self, partitioner):
        key = keys_for(partitioner, 0, 1)[0]
        store = MultiVersionStore({key: b"v"})
        txn = TxnPayload("t", reads={key: NO_BATCH}, writes={key: b"n"})
        assert stale_read_check(txn, 0, partitioner, store) is None

    def test_stale_read_detected(self, partitioner):
        key = keys_for(partitioner, 0, 1)[0]
        store = MultiVersionStore({key: b"v"})
        store.apply({key: b"newer"}, batch=3)
        txn = TxnPayload("t", reads={key: NO_BATCH}, writes={key: b"n"})
        assert stale_read_check(txn, 0, partitioner, store) == key

    def test_reads_of_other_partitions_are_ignored(self, partitioner):
        p1_key = keys_for(partitioner, 1, 1)[0]
        store = MultiVersionStore()
        txn = TxnPayload("t", reads={p1_key: 7}, writes={p1_key: b"n"})
        assert stale_read_check(txn, 0, partitioner, store) is None


class TestKeyConflictIndex:
    def test_detects_conflicts_through_index(self, partitioner):
        keys = keys_for(partitioner, 0, 3)
        index = KeyConflictIndex(0, partitioner)
        index.add(TxnPayload("t1", writes={keys[0]: b"1"}))
        index.add(TxnPayload("t2", reads={keys[1]: 0}, writes={keys[2]: b"2"}))
        # write-write with t1
        assert index.first_conflict(TxnPayload("x", writes={keys[0]: b"9"})) == "t1"
        # write-read with t2's read
        assert index.first_conflict(TxnPayload("y", writes={keys[1]: b"9"})) == "t2"
        # read-write with t2's write
        assert index.first_conflict(TxnPayload("z", reads={keys[2]: 0}, writes={"other": b"1"})) == "t2"

    @pytest.mark.parametrize("order", [("t-a", "t-b", "t-c"), ("t-c", "t-b", "t-a")])
    def test_the_first_indexed_owner_is_named(self, partitioner, order):
        # Which transaction an abort reason names must not depend on
        # PYTHONHASHSEED: owners of a key are searched in indexing order.
        key = keys_for(partitioner, 0, 1)[0]
        index = KeyConflictIndex(0, partitioner)
        for txn_id in order:
            index.add(TxnPayload(txn_id, reads={key: 0}, writes={"other": b"1"}))
        assert index.first_conflict(TxnPayload("w", writes={key: b"9"})) == order[0]
        index.remove(order[0])
        assert index.first_conflict(TxnPayload("w", writes={key: b"9"})) == order[1]

    def test_no_conflict_for_disjoint_or_read_read(self, partitioner):
        keys = keys_for(partitioner, 0, 3)
        index = KeyConflictIndex(0, partitioner)
        index.add(TxnPayload("t1", reads={keys[0]: 0}, writes={keys[1]: b"1"}))
        probe = TxnPayload("p", reads={keys[0]: 0}, writes={keys[2]: b"2"})
        assert index.first_conflict(probe) is None

    def test_remove_clears_footprint(self, partitioner):
        keys = keys_for(partitioner, 0, 2)
        index = KeyConflictIndex(0, partitioner)
        index.add(TxnPayload("t1", writes={keys[0]: b"1"}))
        index.remove("t1")
        assert index.first_conflict(TxnPayload("x", writes={keys[0]: b"9"})) is None
        assert len(index) == 0

    def test_duplicate_add_is_idempotent(self, partitioner):
        keys = keys_for(partitioner, 0, 1)
        index = KeyConflictIndex(0, partitioner)
        txn = TxnPayload("t1", writes={keys[0]: b"1"})
        index.add(txn)
        index.add(txn)
        index.remove("t1")
        assert len(index) == 0

    def test_ignores_keys_of_other_partitions(self, partitioner):
        p1_key = keys_for(partitioner, 1, 1)[0]
        index = KeyConflictIndex(0, partitioner)
        index.add(TxnPayload("t1", writes={p1_key: b"1"}))
        assert index.first_conflict(TxnPayload("x", writes={p1_key: b"2"})) is None

    def test_clear(self, partitioner):
        keys = keys_for(partitioner, 0, 1)
        index = KeyConflictIndex(0, partitioner)
        index.add(TxnPayload("t1", writes={keys[0]: b"1"}))
        index.clear()
        assert "t1" not in index


class TestConflictChecker:
    def test_accepts_fresh_nonconflicting_transaction(self, partitioner):
        keys = keys_for(partitioner, 0, 2)
        store = MultiVersionStore({k: b"v" for k in keys})
        checker = ConflictChecker(0, partitioner, store)
        txn = TxnPayload("t", reads={keys[0]: NO_BATCH}, writes={keys[1]: b"x"})
        assert checker.check(txn).ok

    def test_rejects_stale_read(self, partitioner):
        keys = keys_for(partitioner, 0, 1)
        store = MultiVersionStore({keys[0]: b"v"})
        store.apply({keys[0]: b"w"}, batch=2)
        checker = ConflictChecker(0, partitioner, store)
        txn = TxnPayload("t", reads={keys[0]: NO_BATCH}, writes={keys[0]: b"x"})
        report = checker.check(txn)
        assert not report.ok
        assert "stale" in report.reason

    def test_rejects_conflict_with_index(self, partitioner):
        keys = keys_for(partitioner, 0, 2)
        store = MultiVersionStore({k: b"v" for k in keys})
        checker = ConflictChecker(0, partitioner, store)
        index = KeyConflictIndex(0, partitioner)
        index.add(TxnPayload("pending", writes={keys[0]: b"1"}))
        txn = TxnPayload("t", reads={keys[0]: NO_BATCH}, writes={keys[1]: b"x"})
        report = checker.check(txn, indexes=[index])
        assert not report.ok
        assert report.conflicting_txn == "pending"

    def test_transaction_with_empty_local_footprint_is_accepted(self, partitioner):
        p1_key = keys_for(partitioner, 1, 1)[0]
        store = MultiVersionStore()
        checker = ConflictChecker(0, partitioner, store)
        txn = TxnPayload("t", writes={p1_key: b"x"})
        assert checker.check(txn).ok

    def test_does_not_conflict_with_itself(self, partitioner):
        keys = keys_for(partitioner, 0, 1)
        store = MultiVersionStore({keys[0]: b"v"})
        checker = ConflictChecker(0, partitioner, store)
        txn = TxnPayload("t", writes={keys[0]: b"1"})
        index = KeyConflictIndex(0, partitioner)
        index.add(txn)
        assert checker.check(txn, indexes=[index]).ok


class TestSharedFootprint:
    """Every caller reads the one split the transaction keeps of its key sets.

    The reports must be those of the closed-form footprint (what the parent
    commit computed at every call), and the split must really happen once per
    transaction object — not once per check, index or node.
    """

    def _matrix(self, partitioner):
        a, b, c = keys_for(partitioner, 0, 3)
        remote = keys_for(partitioner, 1, 1)[0]
        pending = TxnPayload("pending", reads={a: NO_BATCH}, writes={b: b"1"})
        probes = [
            TxnPayload("ww", writes={b: b"2"}),
            TxnPayload("rw", reads={b: NO_BATCH}, writes={c: b"2"}),
            TxnPayload("wr", writes={a: b"2"}),
            TxnPayload("rr", reads={a: NO_BATCH}),
            TxnPayload("disjoint", reads={c: NO_BATCH}, writes={c: b"2"}),
            TxnPayload("elsewhere", writes={remote: b"2"}),
            TxnPayload("stale", reads={c: 7, a: 7}, writes={c: b"2"}),
            TxnPayload("stale-remote-read", reads={remote: 7}, writes={c: b"2"}),
        ]
        return pending, probes, MultiVersionStore({key: b"v" for key in (a, b, c)})

    @staticmethod
    def _closed_form(txn, partition, partitioner):
        return Footprint(
            reads=frozenset(k for k in txn.reads if partitioner.partition_of(k) == partition),
            writes=frozenset(k for k in txn.writes if partitioner.partition_of(k) == partition),
        )

    def test_reports_match_the_closed_form_footprints(self, partitioner):
        pending, probes, store = self._matrix(partitioner)
        checker = ConflictChecker(0, partitioner, store)
        index = KeyConflictIndex(0, partitioner)
        index.add(pending)
        reports = {}
        for txn in probes:
            assert Footprint.of(txn, 0, partitioner) == self._closed_form(txn, 0, partitioner)
            report = checker.check(txn, [index])
            reports[txn.txn_id] = (report.ok, report.conflicting_txn)
            if report.ok:
                index.add(txn)
        assert index._footprints == {
            txn.txn_id: self._closed_form(txn, 0, partitioner)
            for txn in (pending, *probes)
            if txn.txn_id in index
        }
        assert reports == {
            "ww": (False, "pending"),
            "rw": (False, "pending"),
            "wr": (False, "pending"),
            "rr": (True, ""),
            "disjoint": (True, ""),
            "elsewhere": (True, ""),
            "stale": (False, ""),
            "stale-remote-read": (False, "disjoint"),
        }

    def test_first_stale_key_follows_the_transactions_read_order(self, partitioner):
        _, probes, store = self._matrix(partitioner)
        checker = ConflictChecker(0, partitioner, store)
        stale = next(txn for txn in probes if txn.txn_id == "stale")
        first_read = next(iter(stale.reads))
        assert repr(first_read) in checker.check(stale).reason
        assert stale_read_check(stale, 0, partitioner, store) == first_read

    def test_check_and_add_split_the_key_sets_once_per_transaction_object(self, partitioner, monkeypatch):
        pending, probes, store = self._matrix(partitioner)
        prepared_index = KeyConflictIndex(0, partitioner)
        prepared_index.add(pending)
        txn = next(txn for txn in probes if txn.txn_id == "disjoint")
        calls = []
        real = HashPartitioner.partition_of
        monkeypatch.setattr(
            HashPartitioner, "partition_of", lambda self, key: (calls.append(key), real(self, key))[1]
        )
        # Admit, seal and validate on one node, then validate on another: the
        # stages that each re-split at the parent commit.
        for _node in range(2):
            for _stage in range(3):
                checker = ConflictChecker(0, partitioner, store)
                batch_index = KeyConflictIndex(0, partitioner)
                assert checker.check(txn, (batch_index, prepared_index)).ok
                batch_index.add(txn)
                assert txn.writes_in(0, partitioner) == txn.writes
        assert sorted(calls) == sorted(txn.keys())
