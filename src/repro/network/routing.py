"""Route selection under bandwidth constraints.

The negotiation's resource-commitment step needs a path from the chosen
server to the client that can carry the flow's peak rate.  We provide
the two classic policies:

* **widest-shortest** (default): among paths whose every link still has
  the required residual bandwidth, take the one minimising accumulated
  link cost weight (tie-broken by hop count by the shortest-path
  algorithm itself);
* **shortest regardless** (for the no-admission baselines): ignore
  residual bandwidth, return the cheapest path.

Both return a :class:`Route` with its end-to-end :class:`PathQoS`, so
the caller can also verify delay/jitter/loss bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import networkx as nx

from ..util.errors import NoRouteError
from .link import Link
from .qosparams import PathQoS
from .topology import Topology

__all__ = ["Route", "find_route"]


@dataclass(frozen=True, slots=True)
class Route:
    """A concrete node/link path with its accumulated QoS."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    qos: PathQoS

    def __str__(self) -> str:
        return " -> ".join(self.nodes)


def _route_from_nodes(topology: Topology, nodes: list[str]) -> Route:
    links = topology.links_on_path(nodes)
    qos = reduce(PathQoS.extend, (link.qos for link in links), PathQoS.identity())
    return Route(nodes=tuple(nodes), links=links, qos=qos)


def find_route(
    topology: Topology,
    source: str,
    target: str,
    required_bps: float,
) -> Route:
    """Cheapest path whose every link can still reserve ``required_bps``.

    Raises :class:`NoRouteError` when the endpoints are unknown,
    disconnected, or every connecting path lacks residual bandwidth.
    """
    # Link cost weights are static, so when no link is bandwidth-
    # constrained the search graph below is exactly the full graph and
    # the answer depends only on (source, target).  That is the hot
    # case — commitment walks mostly run far from saturation — and the
    # topology memoises it; any constrained link falls through to the
    # full search.  A memoised pair names two known, distinct nodes
    # (nodes are never removed), so a hit needs no endpoint checks.
    unconstrained = topology.unconstrained_for(required_bps)
    if unconstrained:
        cached = topology.cached_route(source, target)
        if cached is not None:
            assert isinstance(cached, Route)
            return cached
    if not topology.has_node(source):
        raise NoRouteError(f"unknown node {source!r}")
    if not topology.has_node(target):
        raise NoRouteError(f"unknown node {target!r}")
    if source == target:
        return Route(nodes=(source,), links=(), qos=PathQoS.identity())

    def weight(a: str, b: str, data: dict) -> "float | None":
        link: Link = data["link"]
        if not link.can_reserve(required_bps):
            return None  # networkx treats None as "edge absent"
        return link.cost_weight

    try:
        nodes = nx.shortest_path(
            topology.graph, source, target, weight=weight
        )
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        raise NoRouteError(
            f"no path from {source!r} to {target!r} with "
            f"{required_bps:.0f} bps available"
        ) from None
    route = _route_from_nodes(topology, nodes)
    if unconstrained:
        topology.store_route(source, target, route)
    return route
