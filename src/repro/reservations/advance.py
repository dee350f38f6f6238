"""Advance (future) reservations for the negotiation procedure.

Extends the §4 procedure with the booking semantics of the authors'
companion work [Haf 96]: the user's time profile names a future playout
window; step 5 then *books* capacity on interval ledgers mirroring the
deployment instead of reserving live resources.  At the window's start
the booking is *claimed*: converted into a real commitment through the
ordinary resource committer (the plan is re-validated against the live
system, so an optimistic booking can still fail and trigger
renegotiation).

Ledger capacities: links use their raw capacity; servers use
``min(NIC, disk_transfer_rate × DISK_PLAN_FACTOR)`` — a documented linear
approximation of the nonlinear round-based admission (per-stream seek
overhead is ignored at planning time; the claim step runs the real
admission).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from ..client.machine import ClientMachine
from ..cmfs.server import MediaServer
from ..core.classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    walk_order,
)
from ..core.enumeration import OfferSpace, build_offer_space
from ..core.negotiation import NegotiationResult, QoSManager, Walk
from ..core.offers import SystemOffer, derive_user_offer
from ..core.profiles import UserProfile
from ..core.status import NegotiationStatus
from ..network.routing import find_route
from ..network.topology import Topology
from ..util.errors import CapacityError, NoRouteError, ReservationError
from .interval import IntervalBooking, IntervalLedger

__all__ = ["AdvanceBookingPlan", "AdvancePlanner", "AdvanceNegotiator"]

DISK_PLAN_FACTOR = 0.8
"""Planning share of the raw disk transfer rate (leaves headroom for
the per-stream positioning overhead the ledger cannot see)."""


@dataclass(slots=True)
class AdvanceBookingPlan:
    """A committed future reservation: offer + bookings + window."""

    plan_id: str
    document_id: str
    offer: SystemOffer
    classified: ClassifiedOffer
    start_s: float
    end_s: float
    bookings: tuple[IntervalBooking, ...]
    ledgers: tuple[IntervalLedger, ...]
    status: NegotiationStatus
    user_offer: object
    claimed: bool = False
    cancelled: bool = False

    @property
    def window(self) -> tuple[float, float]:
        return (self.start_s, self.end_s)


class AdvancePlanner:
    """Interval ledgers mirroring a deployment's links and servers."""

    def __init__(
        self, topology: Topology, servers: Mapping[str, MediaServer]
    ) -> None:
        self._topology = topology
        self._link_ledgers = {
            link.link_id: IntervalLedger(link.link_id, link.capacity_bps)
            for link in topology.links()
        }
        self._server_ledgers = {
            server_id: IntervalLedger(
                server_id,
                min(
                    server.admission.nic_bps,
                    server.disk.transfer_rate_bps * DISK_PLAN_FACTOR,
                ),
            )
            for server_id, server in servers.items()
        }

    def link_ledger(self, link_id: str) -> IntervalLedger:
        try:
            return self._link_ledgers[link_id]
        except KeyError:
            raise ReservationError(f"no ledger for link {link_id!r}") from None

    def server_ledger(self, server_id: str) -> IntervalLedger:
        try:
            return self._server_ledgers[server_id]
        except KeyError:
            raise ReservationError(
                f"no ledger for server {server_id!r}"
            ) from None

    def ledgers(self) -> tuple[IntervalLedger, ...]:
        return tuple(self._link_ledgers.values()) + tuple(
            self._server_ledgers.values()
        )

    # -- planning one offer ---------------------------------------------------------

    def try_book_offer(
        self,
        offer: SystemOffer,
        space: OfferSpace,
        client_access_point: str,
        server_access_points: Mapping[str, str],
        start_s: float,
        end_s: float,
        *,
        holder: str,
    ) -> "tuple[tuple[IntervalBooking, ...], tuple[IntervalLedger, ...]] | None":
        """Book every resource the offer needs over the window;
        all-or-nothing with rollback, mirroring the live committer."""
        taken: list[tuple[IntervalLedger, IntervalBooking]] = []
        try:
            for monomedia_id, variant in offer.variants.items():
                spec = space.spec_for(variant)
                rate = spec.max_bit_rate
                server_ledger = self.server_ledger(variant.server_id)
                taken.append(
                    (
                        server_ledger,
                        server_ledger.book(start_s, end_s, rate, holder),
                    )
                )
                source = server_access_points[variant.server_id]
                try:
                    route = find_route(
                        self._topology, source, client_access_point, 0.0
                    )
                except NoRouteError:
                    raise CapacityError(
                        f"no path {source!r} -> {client_access_point!r}"
                    ) from None
                if not route.qos.satisfies(spec.qos_bound):
                    raise CapacityError("route QoS bound violated")
                for link in route.links:
                    ledger = self.link_ledger(link.link_id)
                    taken.append(
                        (ledger, ledger.book(start_s, end_s, rate, holder))
                    )
        except CapacityError:
            for ledger, booking in taken:
                ledger.release(booking)
            return None
        ledgers = tuple(ledger for ledger, _ in taken)
        bookings = tuple(booking for _, booking in taken)
        return bookings, ledgers


class AdvanceNegotiator:
    """The §4 procedure with step 5 replaced by future bookings.

    Steps 1–4 are the live manager's :meth:`QoSManager.plan` (they are
    time-independent, and the user's §8 preferences — security floor,
    server weights — apply to a booking exactly as to a live request);
    step 5 walks the plan's offers booking ledger windows; step 6's
    confirmation is the later :meth:`claim`.
    """

    def __init__(self, manager: QoSManager) -> None:
        self.manager = manager
        self.planner = AdvancePlanner(
            manager.committer.transport.topology,
            manager.committer.servers,
        )
        self._plan_ids = itertools.count(1)

    def negotiate_advance(
        self,
        document,
        profile: UserProfile,
        client: ClientMachine,
        *,
        start_s: float,
    ) -> "AdvanceBookingPlan | NegotiationResult":
        """Negotiate a booking for ``[start_s, start_s + duration)``, the
        document's whole duration.

        Returns an :class:`AdvanceBookingPlan` when a bookable offer
        exists, else the failing :class:`NegotiationResult` (local /
        compatibility failures and FAILEDTRYLATER carry over verbatim).
        """
        manager = self.manager
        if isinstance(document, str):
            document = manager.database.get_document(document)
        end_s = start_s + document.duration_s

        plan = manager.plan(
            document, profile, client,
            policy=ClassificationPolicy.SNS_PRIMARY,
        )
        if plan.early is not None:
            return plan.early
        space = plan.space
        assert space is not None and plan.offers is not None
        server_aps = {
            server_id: server.access_point
            for server_id, server in manager.committer.servers.items()
        }

        holder = f"advance-{next(self._plan_ids)}"
        pulled: "list[ClassifiedOffer]" = []
        for candidate in walk_order(plan.offers, plan.policy, pulled):
            booked = self.planner.try_book_offer(
                candidate.offer, space, client.access_point, server_aps,
                start_s, end_s, holder=holder,
            )
            if booked is None:
                continue
            bookings, ledgers = booked
            status = (
                NegotiationStatus.SUCCEEDED
                if candidate.satisfies_user
                else NegotiationStatus.FAILED_WITH_OFFER
            )
            return AdvanceBookingPlan(
                plan_id=holder,
                document_id=document.document_id,
                offer=candidate.offer,
                classified=candidate,
                start_s=start_s,
                end_s=end_s,
                bookings=bookings,
                ledgers=ledgers,
                status=status,
                user_offer=derive_user_offer(
                    candidate.offer, profile.desired.time
                ),
            )
        return NegotiationResult(
            status=NegotiationStatus.FAILED_TRY_LATER,
            classified=pulled,
            offer_space=space,
        )

    # -- claiming / cancelling ---------------------------------------------------------

    def claim(
        self,
        plan: AdvanceBookingPlan,
        profile: UserProfile,
        client: ClientMachine,
    ) -> NegotiationResult:
        """Convert the booking into a live commitment at playout time.

        The live committer re-validates against actual admission and
        link state; if the linear plan was optimistic the claim fails
        with FAILEDTRYLATER and the bookings are released either way.
        """
        if plan.claimed or plan.cancelled:
            raise ReservationError(
                f"plan {plan.plan_id} already "
                f"{'claimed' if plan.claimed else 'cancelled'}"
            )
        document = self.manager.database.get_document(plan.document_id)
        space = build_offer_space(
            document, client, self.manager.cost_model,
            mapper=self.manager.mapper, guarantee=self.manager.guarantee,
        )
        self._release(plan)
        plan.claimed = True
        # A one-offer walk under the booking's own holder id.
        booked = [plan.classified]
        return Walk(
            self.manager, space, profile, client,
            pulled=booked, holder=plan.plan_id,
        ).run(booked, offers_in=1)

    def cancel(self, plan: AdvanceBookingPlan) -> None:
        if plan.claimed or plan.cancelled:
            return
        self._release(plan)
        plan.cancelled = True

    @staticmethod
    def _release(plan: AdvanceBookingPlan) -> None:
        for ledger, booking in zip(plan.ledgers, plan.bookings):
            try:
                ledger.release(booking)
            except ReservationError:
                pass
