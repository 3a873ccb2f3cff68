"""Tests for the versioned Merkle tree archive (snapshot-read fast path).

The contract under test: for every batch the archive retains, proofs served
through ``tree_at``/``prove_at`` are byte-identical to proofs from a
from-scratch :class:`MerkleTree` over the multi-version store's materialised
snapshot of the same batch — across value updates, key inserts (tree
rebuilds), retention pruning and checkpoint GC.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ProofError
from repro.common.ids import NO_BATCH
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import MerkleStore, MerkleTree, verify_proof
from repro.storage.mvstore import MultiVersionStore


def make_items(n: int) -> dict:
    return {f"key-{i:03d}": f"value-{i}".encode() for i in range(n)}


class _Mirror:
    """A MerkleStore-with-archive and a MultiVersionStore fed identically."""

    def __init__(self, initial: dict, max_batches: int = 256) -> None:
        self.items = dict(initial)
        self.store = MultiVersionStore(initial)
        self.merkle = MerkleStore(MerkleTree(initial), MerkleTreeArchive(max_batches=max_batches))

    def apply(self, updates: dict, batch: int) -> None:
        self.items.update(updates)
        self.store.apply(updates, batch)
        self.merkle.apply(updates, batch=batch)

    def reference_tree(self, batch: int) -> MerkleTree:
        return MerkleTree(self.store.snapshot_as_of(batch))

    def assert_batch_matches(self, batch: int) -> None:
        reference = self.reference_tree(batch)
        view = self.merkle.tree_at(batch)
        assert view is not None, f"archive lost batch {batch}"
        assert view.root == reference.root
        for key in reference.keys():
            assert key in view
            proof = view.prove(key)
            assert proof == reference.prove(key), f"proof differs at batch {batch}"
            value = self.store.as_of(key, batch).value
            assert verify_proof(view.root, key, value, proof)


class TestArchiveBasics:
    def test_tree_at_current_and_future_batches_is_live_tree(self):
        mirror = _Mirror(make_items(8))
        mirror.apply({"key-001": b"x"}, 1)
        assert mirror.merkle.tree_at(1) is mirror.merkle.tree
        assert mirror.merkle.tree_at(99) is mirror.merkle.tree

    def test_historical_value_update(self):
        mirror = _Mirror(make_items(8))
        mirror.apply({"key-001": b"b1"}, 1)
        mirror.apply({"key-001": b"b2", "key-005": b"b2"}, 2)
        for batch in (NO_BATCH, 0, 1, 2):
            mirror.assert_batch_matches(batch)

    def test_batch_gaps_resolve_to_preceding_state(self):
        mirror = _Mirror(make_items(6))
        mirror.apply({"key-000": b"b2"}, 2)
        mirror.apply({"key-000": b"b7"}, 7)
        # Batches 3..6 saw no writes: same tree as batch 2.
        reference = mirror.reference_tree(4)
        assert mirror.merkle.tree_at(4).root == reference.root
        assert mirror.merkle.tree_at(4).prove("key-003") == reference.prove("key-003")

    def test_key_insert_rebuild_boundary(self):
        mirror = _Mirror(make_items(7))
        mirror.apply({"key-002": b"b1"}, 1)
        mirror.apply({"zzz-new": b"fresh"}, 2)  # insert: leaf positions shift
        mirror.apply({"key-002": b"b3", "zzz-new": b"b3"}, 3)
        for batch in (0, 1, 2, 3):
            mirror.assert_batch_matches(batch)

    def test_proofs_identical_through_multiple_rebuilds(self):
        mirror = _Mirror(make_items(5))
        for batch in range(1, 12):
            updates = {f"key-{batch % 5:03d}": f"v{batch}".encode()}
            if batch % 3 == 0:
                updates[f"new-{batch:02d}"] = b"grow"
            mirror.apply(updates, batch)
        for batch in range(0, 12):
            mirror.assert_batch_matches(batch)

    def test_empty_updates_do_not_archive(self):
        merkle = MerkleStore(MerkleTree(make_items(4)), MerkleTreeArchive())
        merkle.apply({}, batch=1)
        assert len(merkle.archive) == 0

    def test_non_monotonic_batches_rejected(self):
        merkle = MerkleStore(MerkleTree(make_items(4)), MerkleTreeArchive())
        merkle.apply({"key-001": b"x"}, batch=5)
        with pytest.raises(ValueError):
            merkle.apply({"key-001": b"y"}, batch=5)

    def test_live_based_view_fails_loudly_once_the_tree_advances(self):
        merkle = MerkleStore(MerkleTree(make_items(8)), MerkleTreeArchive())
        merkle.apply({"key-001": b"b1"}, batch=1)
        view = merkle.tree_at(0)  # resolved against the live tree
        assert view.prove("key-001") is not None
        merkle.apply({"key-002": b"b2"}, batch=2)  # mutates the live base in place
        with pytest.raises(ProofError):
            view.prove("key-001")
        with pytest.raises(ProofError):
            view.root
        # A freshly resolved view for the same batch works again.
        assert merkle.tree_at(0).prove("key-001") is not None


class TestRetention:
    def test_prune_keeps_floor_batch_answerable(self):
        mirror = _Mirror(make_items(10))
        for batch in range(1, 21):
            mirror.apply({f"key-{batch % 10:03d}": f"v{batch}".encode()}, batch)
        dropped = mirror.merkle.prune_archive(12)
        assert dropped > 0
        assert mirror.merkle.tree_at(11) is None
        with pytest.raises(ProofError):
            mirror.merkle.prove_at("key-001", 11)
        for batch in range(12, 21):
            mirror.assert_batch_matches(batch)

    def test_max_batches_drops_oldest(self):
        mirror = _Mirror(make_items(6), max_batches=4)
        for batch in range(1, 11):
            mirror.apply({"key-001": f"v{batch}".encode()}, batch)
        assert mirror.merkle.tree_at(1) is None
        for batch in range(7, 11):
            mirror.assert_batch_matches(batch)

    def test_prune_below_everything_is_a_noop(self):
        mirror = _Mirror(make_items(4))
        mirror.apply({"key-001": b"x"}, 1)
        assert mirror.merkle.prune_archive(NO_BATCH) == 0
        mirror.assert_batch_matches(0)


class TestArchiveProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_workload_proofs_byte_identical(self, data):
        """Across random write workloads — updates, inserts, pruning — every
        retained batch proves byte-identically to a from-scratch rebuild."""
        initial_size = data.draw(st.integers(min_value=1, max_value=12))
        mirror = _Mirror(make_items(initial_size))
        batches = data.draw(st.integers(min_value=1, max_value=16))
        applied = []
        for batch in range(1, batches + 1):
            existing = sorted(mirror.items)
            chosen = data.draw(
                st.lists(st.sampled_from(existing), min_size=1, max_size=3, unique=True)
            )
            updates = {key: f"b{batch}-{key}".encode() for key in chosen}
            if data.draw(st.booleans()) and data.draw(st.booleans()):
                updates[f"ins-{batch:02d}"] = b"inserted"
            mirror.apply(updates, batch)
            applied.append(batch)
        floor = NO_BATCH
        if data.draw(st.booleans()):
            floor = data.draw(st.sampled_from(applied))
            mirror.merkle.prune_archive(floor)
        for batch in range(max(0, floor), batches + 1):
            mirror.assert_batch_matches(batch)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_interleaved_prunes_mimic_checkpoint_gc(self, data):
        """Pruning mid-workload (as checkpoint stabilisation does) never
        corrupts the still-retained window."""
        mirror = _Mirror(make_items(8))
        floor = NO_BATCH
        for batch in range(1, 25):
            key = data.draw(st.sampled_from(sorted(mirror.items)))
            mirror.apply({key: f"b{batch}".encode()}, batch)
            if batch % 6 == 0:
                floor = batch - data.draw(st.integers(min_value=0, max_value=4))
                mirror.merkle.prune_archive(floor)
                mirror.store.prune(floor)
            check_from = max(0, floor)
            for probe in (check_from, (check_from + batch) // 2, batch):
                mirror.assert_batch_matches(probe)


def _drain(system):
    system.run_until_idle()


class TestReplicaFastPath:
    def _make_system(self, checkpoint=None, perf=None):
        from repro.common.config import (
            BatchConfig,
            CheckpointConfig,
            LatencyConfig,
            PerfConfig,
            SystemConfig,
        )
        from repro.core.system import TransEdgeSystem

        config = SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            checkpoint=checkpoint
            or CheckpointConfig(enabled=True, interval_batches=5, retention_batches=5),
            perf=perf or PerfConfig(),
        )
        return TransEdgeSystem(config)

    def _commit_writes(self, system, count):
        client = system.create_client("writer")
        keys = system.keys_of_partition(0)
        statuses = []

        def body():
            for i in range(count):
                result = yield from client.read_write_txn(
                    [], {keys[i % len(keys)]: f"w{i}".encode()}
                )
                statuses.append(result.status)

        client.spawn(body())
        _drain(system)
        return statuses

    def test_snapshot_requests_served_from_archive_match_rebuild(self):
        from repro.common.ids import ClientId
        from repro.core.messages import SnapshotReply, SnapshotRequest
        from repro.simnet.node import SimNode

        system = self._make_system()
        self._commit_writes(system, 12)
        replica = system.leader_replica(0)
        served = []

        class Sink(SimNode):
            def on_unhandled(self, message, src):
                served.append(message)

        sink = Sink(ClientId("test-sink"), system.env)
        key = system.keys_of_partition(0)[0]
        request = SnapshotRequest(keys=(key,), required_prepare_batch=NO_BATCH)
        replica._on_snapshot_request(request, sink.node_id)
        _drain(system)

        assert len(served) == 1
        reply = served[0]
        assert isinstance(reply, SnapshotReply)
        assert replica.counters.snapshot_fast_path == 1
        assert replica.counters.snapshot_rebuilds == 0
        header = reply.header
        # The proof verifies against the certified historical root and is
        # byte-identical to one from a full rebuild of that batch's tree.
        assert verify_proof(header.merkle_root, key, reply.values[key], reply.proofs[key])
        rebuilt = MerkleTree(replica.store.snapshot_as_of(header.number))
        assert rebuilt.root == header.merkle_root
        assert rebuilt.prove(key) == reply.proofs[key]

    def test_archive_pruned_at_stable_checkpoint_still_serves_window(self):
        system = self._make_system()
        self._commit_writes(system, 30)
        replica = system.leader_replica(0)
        assert replica.checkpoints.stable_seq > 0
        retain_from = replica.checkpoints.stable_seq - replica.config.checkpoint.retention_batches
        archive = replica.merkle.archive
        assert archive is not None
        # GC pruned the archive in lockstep with headers and version chains.
        assert archive.oldest_batch is not None
        assert archive.oldest_batch >= min(h.number for h in replica.headers) - 1
        # Checkpoint-time compaction may fold batches that no round-2 request
        # can name; every *requestable* header (the earliest of each LCE run,
        # the only ones `_earliest_header_with_lce` can return) must remain
        # exactly answerable from the archive.
        requestable = replica.requestable_header_batches()
        for header in replica.headers:
            if header.number < max(0, retain_from):
                continue
            if header.number not in requestable:
                continue
            view = replica.merkle.tree_at(header.number)
            assert view is not None
            assert view.root == header.merkle_root

    def test_archive_compaction_never_mis_answers_swallowed_batches(self):
        """A compacted-away batch returns None (rebuild fallback), never the
        neighbouring batch's tree — that would fail client verification."""
        system = self._make_system()
        self._commit_writes(system, 30)
        replica = system.leader_replica(0)
        assert replica.counters.archive_records_compacted > 0
        requestable = replica.requestable_header_batches()
        swallowed_seen = 0
        for header in replica.headers:
            view = replica.merkle.tree_at(header.number)
            if view is None:
                swallowed_seen += 1
                assert header.number not in requestable
            else:
                assert view.root == header.merkle_root
        assert swallowed_seen > 0

    def test_archive_miss_rebuilds_the_requested_header_not_a_substitute(self):
        """Serving any snapshot other than the earliest satisfying one is
        unsound (the client never rechecks dependencies after round 2), so a
        miss must rebuild that header's tree, not answer from a newer one."""
        from repro.common.config import CheckpointConfig, PerfConfig
        from repro.common.ids import ClientId
        from repro.core.messages import SnapshotRequest
        from repro.simnet.node import SimNode

        system = self._make_system(
            checkpoint=CheckpointConfig(enabled=False),
            perf=PerfConfig(archive_max_batches=2),
        )
        self._commit_writes(system, 12)
        replica = system.leader_replica(0)
        old_header = replica.headers[0]  # far outside the 2-batch archive window
        assert replica.merkle.tree_at(old_header.number) is None
        served = []

        class Sink(SimNode):
            def on_unhandled(self, message, src):
                served.append(message)

        sink = Sink(ClientId("rebuild-sink"), system.env)
        key = system.keys_of_partition(0)[0]
        request = SnapshotRequest(keys=(key,), required_prepare_batch=NO_BATCH)
        replica._answer_snapshot(request, sink.node_id, old_header)
        _drain(system)
        (reply,) = served
        assert reply.header is old_header
        assert verify_proof(
            old_header.merkle_root, key, reply.values[key], reply.proofs[key]
        )
        counters = replica.counters
        assert counters.snapshot_rebuilds == 1
        assert counters.snapshot_fast_path == 0
        assert counters.snapshot_requests_served == 1

    def test_headers_bisect_matches_linear_scan(self):
        system = self._make_system()
        self._commit_writes(system, 12)
        replica = system.leader_replica(0)
        lces = [h.lce for h in replica.headers]
        assert lces == sorted(lces)

        def linear(required):
            for header in replica.headers:
                if header.lce >= required:
                    return header
            return None

        probes = {NO_BATCH, 0, 1} | {h.lce for h in replica.headers}
        probes.add(max(lces) + 1)
        for required in sorted(probes):
            assert replica._earliest_header_with_lce(required) is linear(required)


class TestCompaction:
    """Checkpoint-time delta compaction (see PerfConfig)."""

    def _mirror_with_batches(self, batches: int = 8) -> _Mirror:
        mirror = _Mirror(make_items(16))
        rng = random.Random(5)
        keys = sorted(mirror.items)
        for batch in range(1, batches + 1):
            updates = {rng.choice(keys): f"b{batch}-{i}".encode() for i in range(3)}
            mirror.apply(updates, batch)
        return mirror

    def test_kept_batches_stay_byte_identical(self):
        mirror = self._mirror_with_batches(8)
        keep = {0, 3, 6}
        removed = mirror.merkle.compact_archive(keep)
        assert removed > 0
        for batch in sorted(keep):
            mirror.assert_batch_matches(batch)
        # The live tree and the newest state are unaffected.
        mirror.assert_batch_matches(8)

    def test_swallowed_batches_refuse_instead_of_mis_answering(self):
        mirror = self._mirror_with_batches(8)
        roots_before = {b: mirror.merkle.tree_at(b).root for b in range(0, 8)}
        mirror.merkle.compact_archive({0, 3, 6})
        archive = mirror.merkle.archive
        for batch in (1, 2, 4, 5):
            assert mirror.merkle.tree_at(batch) is None
            assert not archive.covers(batch)
        for batch in (0, 3, 6):
            assert archive.covers(batch)
            assert mirror.merkle.tree_at(batch).root == roots_before[batch]

    def test_compaction_reduces_stored_cells(self):
        mirror = self._mirror_with_batches(12)
        archive = mirror.merkle.archive

        def cell_count():
            return sum(
                sum(len(level) for level in record.delta)
                for record in archive._records
                if record.delta is not None
            )

        before = cell_count()
        removed = mirror.merkle.compact_archive({0, 6})
        assert removed > 0
        # Adjacent deltas overlap near the tree root; merging dedupes cells.
        assert cell_count() < before

    def test_retired_trees_are_never_merged_away(self):
        mirror = _Mirror(make_items(8))
        mirror.apply({"key-001": b"a"}, 1)
        # Inserting a brand-new key forces a rebuild: the superseded tree is
        # retired wholesale and must survive compaction (it terminates delta
        # resolution for every older record).
        mirror.apply({"key-new": b"n"}, 2)
        mirror.apply({"key-002": b"c"}, 3)
        mirror.apply({"key-003": b"d"}, 4)
        removed = mirror.merkle.compact_archive(set())
        archive = mirror.merkle.archive
        assert any(record.tree is not None for record in archive._records)
        # Records at and before the retired tree still answer correctly.
        mirror.assert_batch_matches(0)
        mirror.assert_batch_matches(1)

    def test_compact_on_replica_is_counted(self):
        # End-to-end: stabilised checkpoints compact and count the merges.
        from repro.common.config import BatchConfig, CheckpointConfig, LatencyConfig, SystemConfig
        from repro.core.system import TransEdgeSystem

        system = TransEdgeSystem(
            SystemConfig(
                num_partitions=2,
                fault_tolerance=1,
                initial_keys=64,
                batch=BatchConfig(max_size=4, timeout_ms=2.0),
                latency=LatencyConfig(jitter_fraction=0.0),
                checkpoint=CheckpointConfig(enabled=True, interval_batches=6, retention_batches=12),
            )
        )
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:6]

        def body():
            for i in range(40):
                yield from client.read_write_txn([], {keys[i % 6]: f"v{i}".encode()})

        client.spawn(body())
        system.run_until_idle()
        counters = system.counters()
        assert counters.checkpoints_stable > 0
        assert counters.archive_records_compacted > 0
