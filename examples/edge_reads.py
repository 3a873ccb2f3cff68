#!/usr/bin/env python3
"""Edge tier walkthrough: verified caching, and a byzantine proxy caught live.

Builds a deployment with the near-edge/far-core latency profile — clients
are one short hop from an edge proxy but a long WAN hop from every core
cluster — and shows the three headline behaviours of ``repro.edge``:

1. the first read warms the proxy's cache (a relay through the proxy);
   repeat reads are served from the verified cache at near-edge latency;
2. proxies stay honest *by construction*: everything they return carries
   Merkle proofs against quorum-certified batch headers, which the client
   re-verifies — so when we flip one proxy to a tampering behaviour
   mid-run, the very next read catches it, blacklists the proxy and
   transparently falls back;
3. the workload finishes on the remaining proxy / the core with every
   snapshot fully verified.

Run with::

    python examples/edge_reads.py
"""

from __future__ import annotations

from repro import BatchConfig, EdgeConfig, LatencyConfig, SystemConfig, TransEdgeSystem
from repro.edge.byzantine import install_byzantine


def main() -> None:
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=120,
        batch=BatchConfig(max_size=8, timeout_ms=2.0),
        # Clients sit next to an edge proxy (0.25 ms) but far from the core
        # clusters (6 ms one-way): the setting where verified edge caching
        # pays off.
        latency=LatencyConfig(
            intra_cluster_ms=0.3,
            inter_cluster_ms=2.0,
            client_to_cluster_ms=6.0,
            client_to_edge_ms=0.25,
            jitter_fraction=0.0,
        ),
        edge=EdgeConfig(enabled=True, num_proxies=2),
    )
    system = TransEdgeSystem(config)
    writer = system.create_client("writer", edge_proxies=())
    reader = system.create_client("reader")
    keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]

    def seed_data():
        def body():
            for index, key in enumerate(keys):
                result = yield from writer.read_write_txn([], {key: f"rev-{index}".encode()})
                assert result.committed

        writer.spawn(body())
        system.run_until_idle()

    seed_data()

    def read_once(tag: str):
        out = []

        def body():
            result = yield from reader.read_only_txn(keys)
            out.append(result)

        reader.spawn(body())
        system.run_until_idle()
        result = out[0]
        tier = "edge cache" if result.served_by_edge else "core (relay/fallback)"
        print(
            f"{tag}: {result.latency_ms:6.2f} ms via {tier:22s} "
            f"verified={result.verified}"
        )
        return result

    print("== warming the proxy cache ==")
    read_once("read 1 (cold)")
    warm = read_once("read 2 (warm)")
    assert warm.served_by_edge

    print("\n== flipping the reader's proxy to a byzantine behaviour ==")
    # Corrupt whichever proxy the reader actually routes to.
    chosen = reader.edge_router.pick()
    victim = next(proxy for proxy in system.proxies if proxy.node_id == chosen)
    behaviour = install_byzantine(victim, "tampered-value")
    caught = read_once("read 3 (tampered)")
    assert caught.verified, "the client must fall back to a verified snapshot"
    assert reader.stats.edge_verification_failures == 1
    assert victim.node_id in reader.edge_router.blacklisted()
    print(
        f"caught: proxy {victim.node_id} mutated {behaviour.mutations} value(s), "
        f"failed verification and is now blacklisted"
    )

    print("\n== life goes on without the byzantine proxy ==")
    read_once("read 4")
    final = read_once("read 5")
    assert final.verified
    print(
        f"\nreader stats: {reader.stats.edge_reads_served} cache-served, "
        f"{reader.stats.edge_relays} relayed, "
        f"{reader.stats.edge_fallbacks} fallbacks, "
        f"{len(reader.edge_router.blacklisted())} proxy blacklisted"
    )
    for proxy, entry in sorted(system.cache_snapshot()["edge"].items()):
        print(f"{proxy}: cache hits={entry['hits']} misses={entry['misses']}")


if __name__ == "__main__":
    main()
