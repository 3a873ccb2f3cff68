"""One genesis per partition: built once, shared by the 3f+1 members, unwritable."""

from __future__ import annotations

import builtins

import pytest

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.crypto.merkle import MerkleTree, verify_proof


def make_system(num_partitions=2, initial_keys=64):
    return TransEdgeSystem(
        SystemConfig(
            num_partitions=num_partitions,
            fault_tolerance=1,
            initial_keys=initial_keys,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )


def commit_write(system, key, value):
    client = system.create_client(f"writer-{len(system.clients)}")

    def body():
        result = yield from client.read_write_txn([], {key: value})
        assert result.committed, result.abort_reason

    client.spawn(body())
    system.run_until_idle()


def test_a_deployment_builds_and_sorts_each_partition_once(monkeypatch):
    builds, sorts = [], []
    real_init = MerkleTree.__init__

    def counting_init(self, items):
        builds.append(len(items))
        real_init(self, items)

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(MerkleTree, "__init__", counting_init)
    # A module-level name shadows the builtin for that module only.
    monkeypatch.setattr("repro.crypto.merkle.sorted", counting_sorted, raising=False)
    monkeypatch.setattr("repro.recovery.snapshot.sorted", counting_sorted, raising=False)

    system = make_system(num_partitions=5, initial_keys=200)
    assert len(system.replicas) == 20
    assert len(builds) == 5 and sum(builds) == 200  # not once per replica
    assert len(sorts) == 5  # the tree's sort; the genesis image reuses its keys


def test_members_share_the_genesis_but_not_their_state():
    system = make_system()
    leader, *followers = system.cluster_replicas(0)
    genesis_root = leader.merkle.root
    images = {id(replica.checkpoints.snapshots.genesis) for replica in system.cluster_replicas(0)}
    assert len(images) == 1
    assert len({id(replica.merkle.tree) for replica in system.cluster_replicas(0)}) == 4

    # A crashed member applies nothing, so it shows what the others left alone.
    bystander = followers[-1]
    system.crash_replica(bystander.node_id)
    key = system.keys_of_partition(0)[0]
    commit_write(system, key, b"moved-on")

    assert leader.merkle.root != genesis_root
    assert leader.store.latest(key).value == b"moved-on"
    assert bystander.merkle.root == genesis_root
    assert bystander.store.latest(key).value == system.initial_data[key]
    assert verify_proof(genesis_root, key, system.initial_data[key], bystander.merkle.tree.prove(key))
    # Nor did the write reach the shared genesis itself.
    assert MerkleTree(dict(bystander.checkpoints.snapshots.genesis.values())).root == genesis_root


def test_the_genesis_is_unwritable_from_outside():
    system = make_system()
    key = system.keys_of_partition(0)[0]
    with pytest.raises(TypeError):
        system.initial_data[key] = b"stray"
    system.keys_of_partition(0).clear()  # a copy: the genesis key list survives
    assert system.keys_of_partition(0)[0] == key
    assert system.keys_of_partition(0) == sorted(system.keys_of_partition(0))


def test_a_callers_dataset_is_copied_not_aliased():
    data = {f"key-{i:02d}": b"v" for i in range(16)}
    system = TransEdgeSystem(SystemConfig(num_partitions=2, fault_tolerance=1), initial_data=data)
    key = system.keys_of_partition(0)[0]
    data[key] = b"mutated-after-construction"
    assert system.initial_data[key] == b"v"
    assert system.leader_replica(0).store.latest(key).value == b"v"
