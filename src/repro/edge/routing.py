"""Client-side proxy selection and blacklisting.

Every client owns one :class:`EdgeRouter`.  The router knows the deployment's
proxy ids and picks one per read-only transaction: it rotates over the
proxies placed in the client's own region (the near-edge link, see
:func:`~repro.simnet.latency.proxy_region`) and widens to the remaining
proxies only when no near one is usable.

Blacklisting is *client-local* knowledge: a proxy whose response failed
verification is never asked again by this client (a byzantine proxy can
serve other clients honestly, so a shared blacklist would itself be a trust
assumption).  With every proxy blacklisted the router returns ``None`` and
the client reads directly from the core.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.common.ids import EdgeProxyId, PartitionId
from repro.simnet.latency import proxy_region


class EdgeRouter:
    """Pick a proxy for each read; remember the ones caught misbehaving."""

    def __init__(
        self,
        proxies: Sequence[EdgeProxyId],
        home_partition: PartitionId,
        num_partitions: int,
    ) -> None:
        self._proxies: List[EdgeProxyId] = list(proxies)
        self._blacklisted: Set[EdgeProxyId] = set()
        self._picks = 0
        self._near: List[EdgeProxyId] = [
            proxy
            for proxy in self._proxies
            if proxy_region(proxy, num_partitions) == home_partition
        ]

    def pick(self) -> Optional[EdgeProxyId]:
        """The proxy to use for the next read (None when none is usable).

        Rotates over the usable same-region proxies and only widens to the
        remaining proxies when no near one is usable.
        """
        candidates = [p for p in self._near if p not in self._blacklisted] or [
            p for p in self._proxies if p not in self._blacklisted
        ]
        if not candidates:
            return None
        choice = candidates[self._picks % len(candidates)]
        self._picks += 1
        return choice

    def blacklist(self, proxy: EdgeProxyId) -> None:
        """Never ask ``proxy`` again (its response failed verification)."""
        self._blacklisted.add(proxy)

    def blacklisted(self) -> frozenset:
        return frozenset(self._blacklisted)
