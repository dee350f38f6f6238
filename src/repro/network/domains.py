"""Multi-domain networks and hierarchical reservation ([Haf 95b]).

The authors' companion work negotiates QoS *hierarchically* across
administrative domains: a root negotiator decomposes the end-to-end path
into per-domain segments and asks each domain's agent to reserve its
part; a domain may refuse independently (e.g. a transit-bandwidth
policy), and a refusal anywhere rolls back the whole flow.

This module adds domains on top of the flat substrate without touching
the QoS manager: :class:`HierarchicalTransport` is a drop-in
:class:`~repro.network.transport.TransportSystem` that keeps its one
reserve / release path and overrides two hooks of it: the feasible
route must also pass every charged domain's quota, and the links are
held and given back segment by segment through each domain's
:class:`DomainAgent`.  Observable additions over the flat system:

* per-domain **transit quotas** — an upper bound on the aggregate
  bandwidth of flows crossing the domain (admission can now fail for
  policy reasons even when every link has capacity);
* a **signalling-message count** — two messages per involved domain per
  set-up/tear-down, the overhead metric of hierarchical negotiation.

Gateway links (endpoints in different domains) are charged to the
*downstream* domain — the one being entered along the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..util.errors import CapacityError, NetworkError, ReservationError
from ..util.validation import check_name, check_positive
from .link import Link, LinkReservation
from .qosparams import FlowSpec
from .routing import Route
from .topology import Topology
from .transport import FlowReservation, TransportSystem

__all__ = ["Domain", "DomainMap", "DomainAgent", "HierarchicalTransport"]


@dataclass(frozen=True, slots=True)
class Domain:
    """One administrative domain."""

    name: str
    transit_quota_bps: "float | None" = None  # None = unlimited

    def __post_init__(self) -> None:
        check_name(self.name, "domain name")
        if self.transit_quota_bps is not None:
            check_positive(self.transit_quota_bps, "transit_quota_bps")


class DomainMap:
    """Assignment of topology nodes to domains."""

    def __init__(self, domains: Iterable[Domain] = ()) -> None:
        self._domains: dict[str, Domain] = {}
        self._node_domain: dict[str, str] = {}
        for domain in domains:
            self.add_domain(domain)

    def add_domain(self, domain: Domain) -> Domain:
        if domain.name in self._domains:
            raise NetworkError(f"duplicate domain {domain.name!r}")
        self._domains[domain.name] = domain
        return domain

    def assign(self, node_id: str, domain_name: str) -> None:
        if domain_name not in self._domains:
            raise NetworkError(f"unknown domain {domain_name!r}")
        self._node_domain[node_id] = domain_name

    def domain_of(self, node_id: str) -> Domain:
        try:
            return self._domains[self._node_domain[node_id]]
        except KeyError:
            raise NetworkError(f"node {node_id!r} is in no domain") from None

    def domains(self) -> tuple[Domain, ...]:
        return tuple(self._domains.values())

    def validate(self, topology: Topology) -> None:
        """Every node must be assigned."""
        missing = [n for n in topology.nodes() if n not in self._node_domain]
        if missing:
            raise NetworkError(f"nodes without a domain: {sorted(missing)}")

    def link_owner(self, link: Link, *, towards: str) -> Domain:
        """The domain charged for ``link`` when traversing towards the
        node ``towards`` (the entered domain owns gateway links)."""
        return self.domain_of(towards)


@dataclass(slots=True)
class DomainAgent:
    """Reserves one domain's segments, enforcing its transit policy."""

    domain: Domain
    transit_reserved_bps: float = 0.0
    messages: int = 0
    refusals: int = 0

    def can_admit(self, rate_bps: float) -> bool:
        quota = self.domain.transit_quota_bps
        return quota is None or self.transit_reserved_bps + rate_bps <= quota + 1e-9

    def reserve_segment(
        self, links: "list[Link]", rate_bps: float, holder: str
    ) -> "list[LinkReservation]":
        """Reserve every link of this domain's segment (atomic within
        the segment; the caller handles cross-domain rollback)."""
        self.messages += 1  # the request
        if not self.can_admit(rate_bps):
            self.refusals += 1
            raise CapacityError(
                f"domain {self.domain.name!r}: transit quota "
                f"{self.domain.transit_quota_bps:.0f} bps exhausted"
            )
        taken: list[LinkReservation] = []
        try:
            for link in links:
                taken.append(link.reserve(rate_bps, holder=holder))
        except CapacityError:
            for link, reservation in zip(links, taken):
                link.release(reservation)
            self.refusals += 1
            raise
        self.transit_reserved_bps += rate_bps
        self.messages += 1  # the confirmation
        return taken

    def release_segment(
        self, links: "list[Link]", reservations: "list[LinkReservation]",
        rate_bps: float,
    ) -> None:
        self.messages += 1
        for link, reservation in zip(links, reservations):
            try:
                link.release(reservation)
            except ReservationError:
                pass
        self.transit_reserved_bps = max(
            self.transit_reserved_bps - rate_bps, 0.0
        )
        self.messages += 1


class HierarchicalTransport(TransportSystem):
    """A :class:`TransportSystem` that reserves through domain agents.

    Routing is still global (the root negotiator sees the whole map, as
    in [Haf 95b]'s top-level negotiator); *reservation* is delegated per
    domain.  Quota refusals surface exactly like link-capacity refusals,
    so the QoS manager's step 5 needs no changes.
    """

    def __init__(self, topology: Topology, domain_map: DomainMap) -> None:
        super().__init__(topology)
        domain_map.validate(topology)
        self.domain_map = domain_map
        self.agents: dict[str, DomainAgent] = {
            domain.name: DomainAgent(domain)
            for domain in domain_map.domains()
        }

    # -- helpers -----------------------------------------------------------------

    def _split_route(self, route: Route) -> "list[tuple[DomainAgent, list[Link]]]":
        """Group the route's links into per-domain segments, charging
        each link to the domain being entered."""
        segments: list[tuple[DomainAgent, list[Link]]] = []
        for link, towards in zip(route.links, route.nodes[1:]):
            owner = self.domain_map.link_owner(link, towards=towards)
            agent = self.agents[owner.name]
            if segments and segments[-1][0] is agent:
                segments[-1][1].append(link)
            else:
                segments.append((agent, [link]))
        return segments

    @property
    def total_messages(self) -> int:
        return sum(agent.messages for agent in self.agents.values())

    # -- TransportSystem hooks -----------------------------------------------------------

    def _feasible_route(
        self, source: str, target: str, spec: FlowSpec, rate: float
    ) -> "Route | None":
        """The flat feasible route, kept only if every domain it
        charges can admit ``rate`` under its transit quota."""
        route = super()._feasible_route(source, target, spec, rate)
        if route is None:
            return None
        for agent, _links in self._split_route(route):
            if not agent.can_admit(rate):
                return None
        return route

    def _hold(
        self, route: Route, rate: float, flow_id: str
    ) -> tuple[LinkReservation, ...]:
        """Reserve the route segment by segment through each domain's
        agent; a refusal anywhere releases the segments already held."""
        done: list[tuple[DomainAgent, list[Link], list[LinkReservation]]] = []
        try:
            for agent, links in self._split_route(route):
                done.append(
                    (agent, links, agent.reserve_segment(links, rate, flow_id))
                )
        except CapacityError:
            for agent, links, reservations in done:
                agent.release_segment(links, reservations, rate)
            raise
        return tuple(r for _, _, reservations in done for r in reservations)

    def _give_back(self, flow: FlowReservation) -> None:
        """Tear the flow down segment by segment through the agents."""
        held = iter(flow.link_reservations)
        for agent, links in self._split_route(flow.route):
            agent.release_segment(
                links, [next(held) for _ in links], flow.reserved_bps
            )
