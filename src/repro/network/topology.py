"""Network topology: attachment points and links.

Nodes are attachment points (client access networks, server access
points, backbone switches); edges carry :class:`~repro.network.link.Link`
objects.  The graph is undirected — the era's ATM links are duplex and
the paper's flows are one-directional video/audio deliveries whose
reverse control traffic is negligible.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from ..util.errors import NetworkError, NotFoundError
from .link import Link

__all__ = ["Topology"]


class Topology:
    """The set of nodes and links the transport system routes over."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._links: dict[str, Link] = {}
        # Memoised full-graph cheapest routes, keyed (source, target).
        # Only consulted/filled while *no* link is bandwidth-constrained
        # for the queried rate (see routing.find_route), because link
        # cost weights are static: under that condition the constrained
        # search graph is identical to the full graph, so the cached
        # answer is exactly what Dijkstra would return.  Structural
        # changes (new links) drop the memo wholesale.
        self._route_cache: dict[tuple[str, str], object] = {}

    # -- construction -----------------------------------------------------------

    def add_link(self, link: Link) -> Link:
        if link.link_id in self._links:
            raise NetworkError(f"duplicate link id {link.link_id!r}")
        if self._graph.has_edge(link.a, link.b):
            raise NetworkError(
                f"nodes {link.a!r} and {link.b!r} are already linked"
            )
        self._links[link.link_id] = link
        self._graph.add_edge(link.a, link.b, link=link)
        self._route_cache.clear()
        return link

    def connect(
        self,
        a: str,
        b: str,
        capacity_bps: float,
        *,
        link_id: str | None = None,
        **link_kwargs,
    ) -> Link:
        """Create and add a link between ``a`` and ``b``."""
        link = Link(
            link_id or f"link:{a}--{b}", a, b, capacity_bps, **link_kwargs
        )
        return self.add_link(link)

    # -- lookup ---------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    def nodes(self) -> tuple[str, ...]:
        return tuple(self._graph.nodes)

    def links(self) -> tuple[Link, ...]:
        return tuple(self._links.values())

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise NotFoundError(f"no link {link_id!r}") from None

    def link_between(self, a: str, b: str) -> Link:
        data = self._graph.get_edge_data(a, b)
        if data is None:
            raise NotFoundError(f"no link between {a!r} and {b!r}")
        return data["link"]

    def has_node(self, node_id: str) -> bool:
        return self._graph.has_node(node_id)

    def links_on_path(self, nodes: Iterable[str]) -> tuple[Link, ...]:
        """The link sequence along a node path."""
        nodes = list(nodes)
        if len(nodes) < 2:
            raise NetworkError(f"path needs at least 2 nodes, got {nodes!r}")
        return tuple(
            self.link_between(a, b) for a, b in zip(nodes, nodes[1:])
        )

    # -- route memoisation ---------------------------------------------------------

    def unconstrained_for(self, required_bps: float) -> bool:
        """True when every link can still reserve ``required_bps`` —
        i.e. the bandwidth-constrained routing graph is the full graph."""
        for link in self._links.values():
            if not link.can_reserve(required_bps):
                return False
        return True

    def cached_route(self, source: str, target: str) -> "object | None":
        return self._route_cache.get((source, target))

    def store_route(self, source: str, target: str, route: object) -> None:
        self._route_cache[(source, target)] = route

    # -- health ------------------------------------------------------------------------

    def oversubscribed_links(self) -> tuple[Link, ...]:
        return tuple(l for l in self._links.values() if l.oversubscribed)

    def clear_congestion(self) -> None:
        for link in self._links.values():
            link.set_congestion(0.0)

    def total_reserved_bps(self) -> float:
        return sum(l.reserved_bps for l in self._links.values())

    def __repr__(self) -> str:
        return (
            f"Topology({self._graph.number_of_nodes()} nodes, "
            f"{len(self._links)} links)"
        )
