"""The verify-cache counts a chaos fingerprint does not cover.

A fingerprint holds only the replicas' verify-cache totals
(``SystemCounters.verify_cache_hits/misses``).  The clients' caches
(``cache_snapshot()["verify_clients"]``) and the edge proxies' are pinned
here, per node, as ``(hits, misses, entries)`` — entries being signature and
certificate verdicts together, so the LRU's contents are pinned too.  Both
seeds run the edge tier with a byzantine proxy; seed 21 also crashes two
replicas.  The numbers were recorded before each node's verifier became a
``KeyRegistry`` of its own, and must not move with how verification is
wired.
"""

from __future__ import annotations

import pytest

PINNED = {
    1: {
        "clients": {
            "client:chaos-0": (0, 0, 0),
            "client:chaos-1": (0, 60, 80),
            "client:chaos-probe": (0, 0, 0),
        },
        "proxies": {"edge:0": (0, 96, 128)},
    },
    21: {
        "clients": {
            "client:chaos-0": (0, 0, 0),
            "client:chaos-1": (0, 42, 56),
            "client:chaos-2": (0, 69, 92),
            "client:chaos-probe": (0, 0, 0),
        },
        "proxies": {"edge:0": (0, 228, 304)},
    },
}


def counts(nodes):
    return {
        str(node.node_id): (node.verifier.cache.hits, node.verifier.cache.misses, len(node.verifier.cache))
        for node in nodes
    }


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_client_and_proxy_verify_counts_are_pinned(seed, twinned_run):
    system = twinned_run(seed).observation.system
    assert counts(system.clients) == PINNED[seed]["clients"]
    assert counts(system.proxies) == PINNED[seed]["proxies"]
    # cache_snapshot() reports the clients' caches as they are.
    assert system.cache_snapshot()["verify_clients"] == {
        name: {"hits": hits, "misses": misses}
        for name, (hits, misses, _) in PINNED[seed]["clients"].items()
    }
