"""A replica hashes each batch's Merkle delta once: what it computed to
validate the proposal is what it installs when the batch is delivered."""

from __future__ import annotations

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.crypto.merkle import MerkleTree

WRITES = 50


def test_one_batch_hashes_its_dirty_paths_once_per_replica(monkeypatch):
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=1,
            fault_tolerance=1,
            initial_keys=256,
            batch=BatchConfig(max_size=WRITES, timeout_ms=20.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    system.run_until_idle()  # the empty genesis batch (number 0)
    leader, *followers = system.cluster_replicas(0)
    assert leader.is_leader
    # One member sits the batch out and replays it through state transfer:
    # ``_apply_batch`` without a validation (so without a preview) before it.
    absent = followers[-1]
    system.crash_replica(absent.node_id)

    hashed = {}  # id(tree) -> number of keys, one entry per kernel call
    real_kernel = MerkleTree.path_overlay

    def counting_kernel(self, updates):
        hashed.setdefault(id(self), []).append(len(updates))
        return real_kernel(self, updates)

    monkeypatch.setattr(MerkleTree, "path_overlay", counting_kernel)

    client = system.create_client("writer")
    keys = system.keys_of_partition(0)[:WRITES]
    outcomes = []

    def body(key):
        result = yield from client.read_write_txn([], {key: b"written"})
        outcomes.append(result.committed)

    for key in keys:
        client.spawn(body(key))
    system.run_until_idle()

    assert outcomes == [True] * WRITES
    live = [leader, *followers[:-1]]
    assert [replica.log.last_seq for replica in live] == [1, 1, 1]
    assert len(leader.log.entries_from(1)[0].value.local_txns) == WRITES  # all in one batch
    # Seal + self-validation + delivery on the leader, validation + delivery
    # on a follower: one kernel call each, over the whole 50-key delta.
    assert [hashed.get(id(replica.merkle.tree)) for replica in live] == [[WRITES]] * 3
    assert id(absent.merkle.tree) not in hashed

    system.restart_replica(absent.node_id)
    system.run_until_idle()
    assert absent.log.last_seq == 1
    assert hashed[id(absent.merkle.tree)] == [WRITES]  # replayed, never previewed
    assert {replica.merkle.root for replica in system.cluster_replicas(0)} == {leader.merkle.root}
    assert all(replica.merkle._prepared is None for replica in system.cluster_replicas(0))
