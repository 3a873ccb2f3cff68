"""A cluster hashes each batch's Merkle delta once: the leader's seal hashes
it, and every other member — validating, delivering, or replaying the batch
through state transfer — finds the result in the deployment's memo.  That
holds for a batch that inserts a key, whose delta is a whole new tree."""

from __future__ import annotations

import gc
import sys
import weakref

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.crypto.merkle import DELTA_MEMO_BUDGET, DeltaMemo, MerkleTree, _Delta

WRITES = 50


def make_system() -> TransEdgeSystem:
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
    return system


def count_kernel(monkeypatch) -> list:
    """One ``(id(tree), number of keys, sealing?)`` entry per kernel call."""
    calls = []
    real_kernel = MerkleTree.path_overlay

    def counting_kernel(self, updates):
        frame, sealing = sys._getframe(1), False
        while frame is not None and not sealing:
            sealing = frame.f_code.co_name == "_propose"
            frame = frame.f_back
        calls.append((id(self), len(updates), sealing))
        return real_kernel(self, updates)

    monkeypatch.setattr(MerkleTree, "path_overlay", counting_kernel)
    return calls


def write_one_batch(system: TransEdgeSystem, name: str) -> list:
    client = system.create_client(name)
    outcomes = []

    def body(key):
        result = yield from client.read_write_txn([], {key: b"written"})
        outcomes.append(result.committed)

    for key in system.keys_of_partition(0)[:WRITES]:
        client.spawn(body(key))
    system.run_until_idle()
    return outcomes


def test_one_batch_hashes_its_dirty_paths_once_per_cluster(monkeypatch):
    system = make_system()
    leader, *followers = system.cluster_replicas(0)
    assert leader.is_leader
    # One member sits the batch out and replays it through state transfer:
    # ``_apply_batch`` without a validation (so without a preview) before it.
    absent = followers[-1]
    system.crash_replica(absent.node_id)
    calls = count_kernel(monkeypatch)

    assert write_one_batch(system, "writer") == [True] * WRITES
    live = [leader, *followers[:-1]]
    assert [replica.log.last_seq for replica in live] == [1, 1, 1]
    assert len(leader.log.entries_from(1)[0].value.local_txns) == WRITES  # all in one batch
    # The leader's seal is the batch's only kernel call, over the whole
    # 50-key delta; its self-validation and delivery, and every follower's
    # validation and delivery, copy what the seal hashed.
    assert calls == [(id(leader.merkle.tree), WRITES, True)]

    system.restart_replica(absent.node_id)
    system.run_until_idle()
    assert absent.log.last_seq == 1
    assert len(calls) == 1  # the replay hashed nothing either
    assert {replica.merkle.root for replica in system.cluster_replicas(0)} == {leader.merkle.root}

    # Another deployment in the same process has its own memo: the same
    # batch over the same genesis is hashed again, once.
    second = make_system()
    assert second.env.merkle_deltas is not system.env.merkle_deltas
    assert write_one_batch(second, "writer") == [True] * WRITES
    assert calls[1:] == [(id(second.leader_replica(0).merkle.tree), WRITES, True)]
    assert second.leader_replica(0).merkle.root == leader.merkle.root


def test_a_batch_inserting_a_key_builds_its_tree_once_per_cluster(monkeypatch):
    system = make_system()
    leader, *followers = system.cluster_replicas(0)
    absent = followers[-1]
    system.crash_replica(absent.node_id)
    inserts = []
    real_inserted = MerkleTree.inserted

    def counting_inserted(self, updates):
        inserts.append(sorted(updates))
        return real_inserted(self, updates)

    monkeypatch.setattr(MerkleTree, "inserted", counting_inserted)
    key = "zzz-outside-genesis"
    assert key not in leader.merkle
    client = system.create_client("inserter")
    outcomes = []

    def body():
        result = yield from client.read_write_txn([], {key: b"fresh"})
        outcomes.append(result.committed)

    client.spawn(body())
    system.run_until_idle()
    assert outcomes == [True]
    assert inserts == [[key]]

    system.restart_replica(absent.node_id)
    system.run_until_idle()
    assert absent.log.last_seq == leader.log.last_seq
    assert inserts == [[key]]  # the replay built nothing either
    members = system.cluster_replicas(0)
    assert {replica.merkle.root for replica in members} == {leader.merkle.root}
    assert all(key in replica.merkle for replica in members)


def test_the_memo_holds_at_most_its_budget_of_leaves():
    # Each entry of a batch that inserts a key holds a whole tree: the memo
    # keeps as many as its budget of leaves allows, the newest ones.
    memo = DeltaMemo()
    tree = MerkleTree({f"key-{index:04d}": b"v" for index in range(1000)})
    keys = [(tree.root, (("new", index.to_bytes(2, "big")),)) for index in range(200)]
    for key in keys:
        memo.store(key, _Delta(rebuilt=tree))
        assert memo.held <= DELTA_MEMO_BUDGET
    kept = [key for key in keys if memo.lookup(key) is not None]
    assert kept == keys[-(DELTA_MEMO_BUDGET // len(tree)):]  # the oldest went first
    assert memo.held == len(kept) * len(tree) == len(memo) * len(tree)


def test_the_memo_weighs_overlays_by_their_cells_and_keeps_its_newest_entry():
    tree = MerkleTree({f"key-{index:04d}": b"v" for index in range(1000)})
    overlay = _Delta(overlay=tree.path_overlay({"key-0001": b"w", "key-0500": b"w"}))
    memo = DeltaMemo(budget=overlay.weight)
    memo.store("overlay", overlay)
    assert memo.held == overlay.weight == sum(len(cells) for cells in overlay.overlay)
    memo.store("overlay", overlay)  # stored again (a forced miss): counted once
    assert memo.held == overlay.weight and len(memo) == 1
    # One tree wider than the whole budget is kept, alone, until the next entry.
    memo.store("tree", _Delta(rebuilt=tree))
    assert memo.lookup("overlay") is None and memo.lookup("tree") is not None
    assert memo.held == len(tree) > overlay.weight
    memo.store("overlay", overlay)
    assert memo.lookup("tree") is None and memo.held == overlay.weight


def test_the_memo_is_freed_with_its_system():
    system = make_system()
    assert write_one_batch(system, "writer") == [True] * WRITES
    memo = weakref.ref(system.env.merkle_deltas)
    assert 0 < memo().held <= DELTA_MEMO_BUDGET
    del system
    gc.collect()
    assert memo() is None
