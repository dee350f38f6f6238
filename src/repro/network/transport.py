"""Transport system facade — what the QoS manager's step 5 talks to.

"The QoS manager ... asks the transport system and the media file
servers to reserve resources to support the QoS associated with the
system offer" (§4 step 5).  :class:`TransportSystem` exposes exactly
that contract:

* :meth:`probe` — can a flow of a given spec be carried between two
  attachment points right now? (used to filter offers cheaply before
  attempting commitment);
* :meth:`reserve` — atomically reserve the flow's peak rate on every
  link of a feasible route (all-or-nothing, with rollback);
* :meth:`release` — tear the flow down;
* :meth:`violated_flows` — flows currently hit by congestion, the
  adaptation trigger.

Guaranteed-service flows reserve their peak rate (``maxBitRate``);
best-effort flows reserve the average rate (``avgBitRate``) — the
paper's cost model distinguishes exactly these two guarantee types
(§7).
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

from ..util.errors import CapacityError, NoRouteError, ReservationError
from .link import LinkReservation
from .qosparams import FlowSpec
from .routing import Route, find_route
from .topology import Topology

__all__ = ["GuaranteeType", "FlowReservation", "TransportSystem"]


class GuaranteeType(enum.Enum):
    """Service guarantee classes of §7's cost model."""

    GUARANTEED = "guaranteed"
    BEST_EFFORT = "best-effort"

    def billable_rate(self, spec: FlowSpec) -> float:
        """The rate reserved (and billed) under this guarantee."""
        if self is GuaranteeType.GUARANTEED:
            return spec.max_bit_rate
        return spec.avg_bit_rate


class FlowReservation(NamedTuple):
    """A committed end-to-end flow: an immutable record built with one
    tuple allocation, compared and hashed field by field."""

    flow_id: str
    source: str
    target: str
    spec: FlowSpec
    guarantee: GuaranteeType
    route: Route
    link_reservations: tuple[LinkReservation, ...]
    holder: str = "anonymous"

    @property
    def reserved_bps(self) -> float:
        return self.guarantee.billable_rate(self.spec)


class TransportSystem:
    """Per-flow reservation management over a :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._flows: dict[str, FlowReservation] = {}
        self._flow_ids = itertools.count(1)
        # Thin fault-injection hook (see repro.faults.injector); None in
        # production paths so the happy path costs one identity check.
        self.fault_hook = None
        # Observability seam (see repro.telemetry): assign a hub and
        # flow reservations/releases are counted.
        self.telemetry = None

    @property
    def topology(self) -> Topology:
        return self._topology

    # -- queries ---------------------------------------------------------------

    def probe(
        self, source: str, target: str, spec: FlowSpec,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
    ) -> "Route | None":
        """A route able to carry the flow now, or None.

        Checks both residual bandwidth and the flow's delay/jitter/loss
        bounds against the route's accumulated QoS.
        """
        return self._feasible_route(
            source, target, spec, guarantee.billable_rate(spec)
        )

    def _feasible_route(
        self, source: str, target: str, spec: FlowSpec, rate: float
    ) -> "Route | None":
        """:meth:`probe` at a rate already billed: the three tests of
        ``route.qos.satisfies(spec.qos_bound)``, read off the spec
        without building its bound.  Both :meth:`probe` and
        :meth:`reserve` ask here, so a subclass that narrows it (a
        domain's transit quota) narrows both."""
        try:
            route = find_route(self._topology, source, target, rate)
        except NoRouteError:
            return None
        qos = route.qos
        if (
            qos.delay_s <= spec.max_delay_s
            and qos.jitter_s <= spec.max_jitter_s
            and qos.loss_rate <= spec.max_loss_rate
        ):
            return route
        return None

    def flow(self, flow_id: str) -> FlowReservation:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise ReservationError(f"no flow {flow_id!r}") from None

    def flows(self) -> tuple[FlowReservation, ...]:
        return tuple(self._flows.values())

    def has_flow(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def flows_for_holder(self, holder: str) -> tuple[FlowReservation, ...]:
        """Every flow reserved on behalf of ``holder`` (the crash-recovery
        compensation scan)."""
        return tuple(
            flow for flow in self._flows.values() if flow.holder == holder
        )

    @property
    def flow_count(self) -> int:
        return len(self._flows)

    # -- commitment ----------------------------------------------------------------

    def reserve(
        self,
        source: str,
        target: str,
        spec: FlowSpec,
        *,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
        holder: str = "anonymous",
    ) -> FlowReservation:
        """Atomically reserve a route for the flow.

        All links reserve or none do: on a mid-path failure every
        already-taken link reservation is rolled back and
        :class:`CapacityError` propagates (step 5 then tries the next
        system offer).
        """
        rate = guarantee.billable_rate(spec)
        route = self._feasible_route(source, target, spec, rate)
        if route is None:
            raise CapacityError(
                f"no feasible route {source!r} -> {target!r} for "
                f"{rate:.0f} bps"
            )
        flow_id = f"flow-{next(self._flow_ids)}"
        flow = FlowReservation(
            flow_id, source, target, spec, guarantee, route,
            self._hold(route, rate, flow_id), holder,
        )
        self._flows[flow_id] = flow
        if self.telemetry is not None:
            self.telemetry.count("network.flows.reserved")
        return flow

    def release(self, flow: "FlowReservation | str") -> None:
        flow_id = flow.flow_id if isinstance(flow, FlowReservation) else flow
        if self._release_intercepted(flow_id):
            return
        record = self._flows.pop(flow_id, None)
        if record is None:
            raise ReservationError(f"no flow {flow_id!r}")
        self._give_back(record)
        if self.telemetry is not None:
            self.telemetry.count("network.flows.released")

    def _hold(
        self, route: Route, rate: float, flow_id: str
    ) -> tuple[LinkReservation, ...]:
        """Take ``rate`` on every link of ``route`` for ``flow_id``, all
        or none: on a refusal the links already taken are given back
        and :class:`CapacityError` propagates."""
        taken: list[LinkReservation] = []
        try:
            for link in route.links:
                taken.append(link.reserve(rate, holder=flow_id))
        except CapacityError:
            for link, reservation in zip(route.links, taken):
                link.release(reservation)
            raise
        return tuple(taken)

    def _give_back(self, flow: FlowReservation) -> None:
        """Return what :meth:`_hold` took for ``flow``."""
        for link, reservation in zip(flow.route.links, flow.link_reservations):
            link.release(reservation)

    def _release_intercepted(self, flow_id: str) -> bool:
        """Lost-release fault: the flow stays reserved (leaked) until the
        lease reaper recovers it."""
        return self.fault_hook is not None and self.fault_hook.intercept_flow_release(
            flow_id
        )

    def release_all(self) -> None:
        for flow_id in list(self._flows):
            self.release(flow_id)

    # -- health --------------------------------------------------------------------

    def violated_flows(self) -> tuple[FlowReservation, ...]:
        """Flows crossing at least one oversubscribed link where they
        are among the shed holders — the §4 adaptation trigger."""
        victims: set[str] = set()
        for link in self._topology.oversubscribed_links():
            victims |= link.violated_holders()
        return tuple(
            flow for flow_id, flow in self._flows.items() if flow_id in victims
        )
