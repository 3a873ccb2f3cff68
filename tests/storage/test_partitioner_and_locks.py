"""Tests for the hash partitioner and the lock table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.storage.locks import LockMode, LockTable
from repro.storage.partitioner import HashPartitioner


class TestHashPartitioner:
    def test_partition_in_range(self):
        partitioner = HashPartitioner(5)
        for i in range(200):
            assert 0 <= partitioner.partition_of(f"key-{i}") < 5

    def test_mapping_is_stable(self):
        a = HashPartitioner(5)
        b = HashPartitioner(5)
        assert all(a.partition_of(f"k{i}") == b.partition_of(f"k{i}") for i in range(100))

    def test_distribution_is_roughly_uniform(self):
        partitioner = HashPartitioner(5)
        counts = [0] * 5
        for i in range(5000):
            counts[partitioner.partition_of(f"user:{i}")] += 1
        assert min(counts) > 700  # perfectly uniform would be 1000 each

    def test_single_partition_maps_everything_to_zero(self):
        partitioner = HashPartitioner(1)
        assert set(partitioner.group_keys(f"k{i}" for i in range(50))) == {0}

    def test_rejects_zero_partitions(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)

    def test_group_keys_and_items_consistent(self):
        partitioner = HashPartitioner(3)
        keys = [f"key-{i}" for i in range(30)]
        grouped_keys = partitioner.group_keys(keys)
        grouped_items = partitioner.group_items({k: k.upper() for k in keys})
        assert set(grouped_keys) == set(grouped_items)
        for partition, members in grouped_keys.items():
            assert set(grouped_items[partition]) == members

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.text(min_size=1, max_size=10), max_size=30), st.integers(2, 8))
    def test_group_keys_partitions_form_a_partition_of_the_keyset(self, keys, n):
        partitioner = HashPartitioner(n)
        grouped = partitioner.group_keys(keys)
        flattened = [k for members in grouped.values() for k in members]
        assert sorted(flattened) == sorted(keys)


class TestLockTable:
    def test_shared_locks_are_compatible(self):
        table = LockTable()
        assert table.try_acquire("ro-1", ["x", "y"], LockMode.SHARED)
        assert table.try_acquire("ro-2", ["x"], LockMode.SHARED)
        assert table.is_share_locked("x")
        assert sorted(table.holders("x")) == ["ro-1", "ro-2"]

    def test_exclusive_conflicts_with_foreign_shared(self):
        table = LockTable()
        table.try_acquire("ro-1", ["x"], LockMode.SHARED)
        assert not table.try_acquire("rw-1", ["x"], LockMode.EXCLUSIVE)

    def test_shared_conflicts_with_foreign_exclusive(self):
        table = LockTable()
        table.try_acquire("rw-1", ["x"], LockMode.EXCLUSIVE)
        assert not table.try_acquire("ro-1", ["x"], LockMode.SHARED)

    def test_owner_can_upgrade_its_own_lock(self):
        table = LockTable()
        table.try_acquire("t1", ["x"], LockMode.SHARED)
        assert table.try_acquire("t1", ["x"], LockMode.EXCLUSIVE)

    def test_all_or_nothing_acquisition(self):
        table = LockTable()
        table.try_acquire("holder", ["y"], LockMode.EXCLUSIVE)
        assert not table.try_acquire("t1", ["x", "y"], LockMode.SHARED)
        # The failed acquisition must not leave a partial lock on "x".
        assert table.holders("x") == []

    def test_release_all_frees_keys(self):
        table = LockTable()
        table.try_acquire("t1", ["x", "y"], LockMode.SHARED)
        table.release_all("t1")
        assert table.holders("x") == []
        assert table.try_acquire("rw", ["x", "y"], LockMode.EXCLUSIVE)
        assert len(table) == 2

    def test_release_unknown_owner_is_noop(self):
        LockTable().release_all("ghost")

    def test_held_by_reports_keys(self):
        table = LockTable()
        table.try_acquire("t1", ["a", "b"], LockMode.SHARED)
        assert table.held_by("t1") == {"a", "b"}
        assert table.held_by("t2") == set()

    def test_exclusive_then_exclusive_conflicts(self):
        table = LockTable()
        table.try_acquire("t1", ["k"], LockMode.EXCLUSIVE)
        assert not table.try_acquire("t2", ["k"], LockMode.EXCLUSIVE)

    def test_can_acquire_matches_try_acquire(self):
        table = LockTable()
        table.try_acquire("t1", ["k"], LockMode.SHARED)
        assert table.can_acquire("t2", "k", LockMode.SHARED)
        assert not table.can_acquire("t2", "k", LockMode.EXCLUSIVE)
