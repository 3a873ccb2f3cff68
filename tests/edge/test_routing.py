"""Client-side proxy selection: near first, wider only when forced."""

from __future__ import annotations

from repro.common.config import BatchConfig, EdgeConfig, SystemConfig
from repro.common.ids import EdgeProxyId
from repro.core.system import TransEdgeSystem
from repro.edge.routing import EdgeRouter
from repro.simnet.latency import proxy_region

PROXIES = [EdgeProxyId(index) for index in range(4)]  # regions 0, 1, 0, 1


def make_router(home_partition=0):
    return EdgeRouter(PROXIES, home_partition=home_partition, num_partitions=2)


class TestEdgeRouter:
    def test_rotates_over_the_near_proxies_only(self):
        router = make_router(home_partition=1)
        picks = [router.pick() for _ in range(6)]
        assert picks == [EdgeProxyId(1), EdgeProxyId(3)] * 3

    def test_widens_only_when_every_near_proxy_is_blacklisted(self):
        router = make_router(home_partition=0)
        router.blacklist(EdgeProxyId(0))
        assert {router.pick() for _ in range(4)} == {EdgeProxyId(2)}
        router.blacklist(EdgeProxyId(2))
        assert {router.pick() for _ in range(4)} == {EdgeProxyId(1), EdgeProxyId(3)}

    def test_returns_none_with_every_proxy_blacklisted(self):
        router = make_router()
        for proxy in PROXIES:
            router.blacklist(proxy)
        assert router.pick() is None
        assert router.blacklisted() == frozenset(PROXIES)

    def test_a_client_with_no_near_proxy_uses_the_far_ones(self):
        router = EdgeRouter([EdgeProxyId(1)], home_partition=0, num_partitions=2)
        assert router.pick() == EdgeProxyId(1)

    def test_deployed_client_prefers_the_proxy_in_its_region(self):
        system = TransEdgeSystem(
            SystemConfig(
                num_partitions=2,
                fault_tolerance=1,
                initial_keys=64,
                batch=BatchConfig(max_size=4, timeout_ms=2.0),
                edge=EdgeConfig(enabled=True, num_proxies=2),
            )
        )
        client = system.create_client("reader")
        near = [
            proxy.node_id
            for proxy in system.proxies
            if proxy_region(proxy.node_id, 2) == client.home_partition
        ]
        assert len(near) == 1
        router = client.edge_router
        assert {router.pick() for _ in range(3)} == set(near)
        router.blacklist(near[0])
        far = router.pick()
        assert far is not None and far not in near
