"""A node verifies each quorum certificate once: the 40 commit records of one
batch all carry the same two vote headers, and a replica validating that
batch pays for one ``KeyRegistry.verify_quorum`` per header, not per record."""

from __future__ import annotations

from collections import Counter

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.crypto.signatures import KeyRegistry

TXNS = 40


def test_one_quorum_check_per_distinct_vote_header_per_replica(monkeypatch):
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=256,
            batch=BatchConfig(max_size=TXNS, timeout_ms=20.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    system.run_until_idle()  # the empty genesis batches

    checked = Counter()  # (id(node cache), certificate payload) -> quorum checks
    real_verify_quorum = KeyRegistry.verify_quorum

    def counting(self, payload, signatures, required, allowed_signers=None, cache=None):
        checked[id(cache), tuple(payload)] += 1
        return real_verify_quorum(
            self, payload, signatures, required, allowed_signers=allowed_signers, cache=cache
        )

    monkeypatch.setattr(KeyRegistry, "verify_quorum", counting)

    client = system.create_client("writer")
    keys = [system.keys_of_partition(partition)[:TXNS] for partition in (0, 1)]
    outcomes = []

    def body(index):
        result = yield from client.read_write_txn(
            [], {keys[0][index]: b"a", keys[1][index]: b"b"}
        )
        outcomes.append(result.committed)

    for index in range(TXNS):
        client.spawn(body(index))
    system.run_until_idle()
    assert outcomes == [True] * TXNS

    for partition in (0, 1):
        for replica in system.cluster_replicas(partition):
            # Batch 1 prepared all 40, batch 2 carries their 40 commit records.
            batch = replica.log.entries_from(2)[0].value
            assert len(batch.committed) == TXNS
            headers = {
                vote.header.certificate
                for record in batch.committed
                for vote in record.votes.values()
            }
            assert len(headers) == 2  # 80 votes, two distinct certificates
            for certificate in headers:
                payload = tuple(certificate.payload())
                assert checked[id(replica.verifier.cache), payload] == 1
