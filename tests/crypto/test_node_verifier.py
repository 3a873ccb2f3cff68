"""Per-node verify caches (``NodeVerifier``) and their metrics exposure.

PR 2 shipped the signature verify cache *shared through the env-wide
registry* — one pooled memo for all simulated nodes, which modeled neither
per-node memory nor per-node hit rates.  PR 3 gives every node its own
:class:`~repro.crypto.signatures.VerifyCache` behind a
:class:`~repro.crypto.signatures.NodeVerifier`; these tests pin the
independence of those caches, their soundness (a verdict can never leak
between tampered payloads), key-rotation invalidation across all attached
caches, and the per-node counters surfaced through the system counters and
``cache_snapshot()``.
"""

from __future__ import annotations

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.crypto.signatures import HmacSigner, KeyRegistry, NodeVerifier


def make_registry():
    registry = KeyRegistry(verify_cache_size=64)
    signer = HmacSigner("node-a")
    registry.register(signer)
    return registry, signer


class TestNodeVerifier:
    def test_caches_are_independent_per_node(self):
        registry, signer = make_registry()
        verifier_one = NodeVerifier(registry, cache_size=64)
        verifier_two = NodeVerifier(registry, cache_size=64)
        payload = ["prepare", 1, 2, b"\x03" * 32]
        signature = signer.sign(payload)

        assert verifier_one.verify(payload, signature)
        assert verifier_one.cache_misses == 1 and verifier_one.cache_hits == 0
        # The second node has not verified this yet: its own cache misses,
        # regardless of what the first node's cache holds.
        assert verifier_two.verify(payload, signature)
        assert verifier_two.cache_misses == 1 and verifier_two.cache_hits == 0
        assert verifier_one.verify(payload, signature)
        assert verifier_one.cache_hits == 1
        # The registry's own cache was never involved.
        assert registry.cache_hits == 0 and registry.cache_misses == 0

    def test_tampered_payload_fails_with_warm_node_cache(self):
        registry, signer = make_registry()
        verifier = NodeVerifier(registry, cache_size=64)
        payload = ["commit", 0, 7, b"\x01" * 32]
        signature = signer.sign(payload)
        assert verifier.verify(payload, signature)
        assert not verifier.verify(["commit", 0, 7, b"\x02" * 32], signature)

    def test_key_rotation_clears_attached_caches(self):
        registry, signer = make_registry()
        verifier = NodeVerifier(registry, cache_size=64)
        payload = ["vote", 9]
        signature = signer.sign(payload)
        assert verifier.verify(payload, signature)
        assert len(verifier.cache) == 1
        # Rotating the identity's key must drop every attached cache: the
        # memoized verdict was computed under the replaced material.
        registry.register(HmacSigner("node-a", secret=b"rotated-secret"))
        assert len(verifier.cache) == 0
        assert not verifier.verify(payload, signature)

    def test_quorum_verification_uses_the_node_cache(self):
        registry, signer = make_registry()
        verifier = NodeVerifier(registry, cache_size=64)
        payload = ["checkpoint", 5, b"\x04" * 32]
        signatures = [signer.sign(payload)]
        assert verifier.verify_quorum(payload, signatures, required=1)
        before = verifier.cache_hits
        assert verifier.verify_quorum(payload, signatures, required=1)
        assert verifier.cache_hits == before + 1

    def test_zero_size_disables_the_node_cache(self):
        registry, signer = make_registry()
        verifier = NodeVerifier(registry, cache_size=0)
        payload = ["x"]
        signature = signer.sign(payload)
        for _ in range(3):
            assert verifier.verify(payload, signature)
        assert verifier.cache_hits == 0 and verifier.cache_misses == 0


class TestPerNodeCacheMetrics:
    def test_system_reports_per_node_hit_miss_counters(self):
        system = TransEdgeSystem(
            SystemConfig(
                num_partitions=2,
                fault_tolerance=1,
                batch=BatchConfig(max_size=4, timeout_ms=2.0),
                latency=LatencyConfig(jitter_fraction=0.0),
                initial_keys=32,
            )
        )
        client = system.create_client("w")
        keys0 = system.keys_of_partition(0)[:4]
        keys1 = system.keys_of_partition(1)[:4]

        def body():
            # Distributed transactions re-verify the same certified headers
            # on the same node (2PC vote checks, then committed-segment
            # validation), which is what the per-node memo accelerates.
            for i in range(10):
                result = yield from client.read_write_txn(
                    [], {keys0[i % 4]: b"v", keys1[i % 4]: b"v"}
                )
                assert result.committed

        client.spawn(body())
        system.run_until_idle()

        snapshot = system.cache_snapshot()
        # One entry per replica (and the client), each with real traffic.
        assert len(snapshot["verify_replicas"]) == len(system.replicas)
        assert len(snapshot["verify_clients"]) == 1
        replica_stats = [
            snapshot["verify_replicas"][str(rid)] for rid in system.replicas
        ]
        assert all(entry["hits"] + entry["misses"] > 0 for entry in replica_stats)
        counters = system.counters()
        assert counters.verify_cache_hits == sum(e["hits"] for e in replica_stats)
        assert counters.verify_cache_misses == sum(e["misses"] for e in replica_stats)
        # Consensus votes are re-verified across the quorum: caching pays.
        assert counters.verify_cache_hits > 0

