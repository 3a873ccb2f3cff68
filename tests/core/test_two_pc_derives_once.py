"""One 2PC commit derives each fact of its value objects once.

Two 5-partition transactions (and one local one) commit over 5 clusters of
4.  The transaction object the client built is the one every leader admits,
every batch embeds and every replica validates, so across all 20 replicas
its payload is canonicalised once and its key sets are split once — and
every digest is byte-for-byte what re-deriving everything produced.
"""

from __future__ import annotations

from collections import Counter

import repro.crypto.hashing as hashing
from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.recovery.snapshot import SnapshotImage
from repro.storage.partitioner import HashPartitioner

PARTITIONS = 5


def run_scenario(after_setup=lambda system: None):
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=PARTITIONS,
            fault_tolerance=1,
            initial_keys=100,
            batch=BatchConfig(max_size=8, timeout_ms=5.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    system.run_until_idle()  # the empty genesis batches
    after_setup(system)
    client = system.create_client("pinned")
    keys = [system.keys_of_partition(partition)[:3] for partition in range(PARTITIONS)]
    results = []

    def distributed(index):
        writes = {keys[p][index]: b"w%d-%d" % (index, p) for p in range(PARTITIONS)}
        results.append((yield from client.read_write_txn([keys[0][index], keys[3][index]], writes)))

    def local():
        results.append((yield from client.read_write_txn([], {keys[2][2]: b"local"})))

    for index in range(2):
        client.spawn(distributed(index))
    client.spawn(local())
    system.run_until_idle()
    assert [result.committed for result in results] == [True] * 3
    return system, keys


def digests_of(system):
    """Per partition: every batch digest, the tip header's and a captured image's."""
    pinned = {}
    for partition in range(PARTITIONS):
        replica = system.cluster_replicas(partition)[1]
        tip = replica.log.next_seq - 1
        pinned[partition] = (
            [entry.value.digest().hex()[:16] for entry in replica.log.entries_from(0)],
            replica.last_header.digest().hex(),
            SnapshotImage.capture(replica, tip).digest().hex(),
        )
    return pinned


def test_payload_canonicalised_once_and_key_sets_split_once(monkeypatch):
    encoded = Counter()  # txn id -> times its payload dict was walked by the encoder
    placed = Counter()  # key -> partition_of calls after set-up
    real_encode_into = hashing._encode_into
    real_partition_of = HashPartitioner.partition_of

    def counting_encode_into(value, out):
        if type(value) is dict and "reads" in value and "writes" in value:
            encoded[value["txn_id"]] += 1
        real_encode_into(value, out)

    def counting_partition_of(self, key):
        placed[key] += 1
        return real_partition_of(self, key)

    def arm(system):
        # ``_encode_into`` recurses through the module global.
        monkeypatch.setattr(hashing, "_encode_into", counting_encode_into)
        monkeypatch.setattr(HashPartitioner, "partition_of", counting_partition_of)

    system, keys = run_scenario(after_setup=arm)
    monkeypatch.undo()

    leader = system.leader_replica(0)
    committed = [record.txn for entry in leader.log.entries_from(0) for record in entry.value.committed]
    assert len(committed) == 2
    for txn in committed:
        assert len(txn.partitions(system.partitioner)) == PARTITIONS
        # 5 prepared records and 5 copies of the commit record, validated by 20 replicas.
        assert encoded[txn.txn_id] == 1
        for key in txn.writes:
            # Once by the split; a key the client also read was grouped for the read round.
            assert placed[key] == 1 + (key in txn.reads), key
    # The local transaction is embedded in one batch and digested there, plainly.
    assert sorted(encoded.values()) == [1, 1, 1]
    assert placed[keys[2][2]] == 1


#: ``digests_of`` this scenario at ``8f74a82``, where every digest re-encoded
#: every transaction and commit record it covers.
PINNED_AT_8F74A82 = {
    0: (
        ["0123638184f84871", "e9e42b702b1081b0", "9a43df1cb60fb76d"],
        "9a43df1cb60fb76d8c35ae0204deaa34f38c9be0a6a524d0f9982e8abb181c71",
        "03c25b525ca2564fe034d8e06fb90d4751ff45cb0d84600f3c771ccda2279140",
    ),
    1: (
        ["3b8aa5db73cde59e", "f809e8da717c046e", "f05fa292106503cc"],
        "f05fa292106503cc97c9dd55f7dda4b4b48868ba8dc2321696d60a294aaa62cd",
        "212c5890afd4882235c6dc5e72e0c169133e2ba0d2202677314a4fa04c942e6e",
    ),
    2: (
        ["2ad9c8cbc348bd3f", "7b8ed47875f0e5a4", "166f2e9c0ce41512", "658c38a3f124b6c1"],
        "658c38a3f124b6c1e6836f9b75e2ecc61103f3d5fa277b9d014f99ed307fdb57",
        "82238b30887dcab1bb03db755e05a7afcd863b2ca03838fce17118378918568d",
    ),
    3: (
        ["73aac4f170640eb1", "520143ddbe9de865", "c3474df9a89aba0f"],
        "c3474df9a89aba0f4028918de44be3648afb8bc860c1edfb405b76e4fd9d2370",
        "f9269ff6f4c153601cf1373be377338a2c9d7c1ba4f937841ae5968445198023",
    ),
    4: (
        ["963fcf861b30e2f1", "2b2673190f61f89e", "cb202bee3fab25c2"],
        "cb202bee3fab25c2d0e5479d12c010ed977a6961f3b1bae09a8a36f34b7152c5",
        "54b19cce8f2defeeae37bd87c7d0ce5c7ddd7d25dd6f3078e7f8c8aa4dc002bc",
    ),
}


def test_digests_are_those_recorded_at_the_parent_commit():
    system, _ = run_scenario()
    assert digests_of(system) == PINNED_AT_8F74A82
