"""Network links with bandwidth reservation (RSVP-style, cf. [Zha 95]).

Each link carries a fixed raw capacity; guaranteed-service flows reserve
their peak rate against it.  Congestion (for the adaptation experiments)
is injected by shrinking the *effective* capacity: reservations made
earlier are then oversubscribed and the transport layer reports the
affected flows as violated — the trigger for the §4 adaptation
procedure.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..util.errors import CapacityError, ReservationError
from ..util.validation import check_fraction, check_positive
from .qosparams import PathQoS

__all__ = ["LinkReservation", "Link"]

_reservation_ids = itertools.count(1)


class LinkReservation(NamedTuple):
    """One flow's hold on one link: an immutable record built with one
    tuple allocation, compared and hashed field by field."""

    reservation_id: int
    link_id: str
    bit_rate: float
    holder: str


class Link:
    """A bidirectional network link between two attachment points."""

    def __init__(
        self,
        link_id: str,
        a: str,
        b: str,
        capacity_bps: float,
        *,
        delay_s: float = 0.002,
        jitter_s: float = 0.001,
        loss_rate: float = 0.0005,
        cost_weight: float = 1.0,
    ) -> None:
        if a == b:
            raise ReservationError(f"link {link_id!r} endpoints must differ")
        self.link_id = link_id
        self.a = a
        self.b = b
        self.capacity_bps = check_positive(capacity_bps, "capacity_bps")
        self.qos = PathQoS(delay_s=delay_s, jitter_s=jitter_s, loss_rate=loss_rate)
        self.cost_weight = check_positive(cost_weight, "cost_weight")
        self._congestion = 0.0
        self._reservations: dict[int, LinkReservation] = {}
        self._reserved_bps = 0.0

    # -- capacity accounting ---------------------------------------------------

    @property
    def reserved_bps(self) -> float:
        return self._reserved_bps

    @property
    def effective_capacity_bps(self) -> float:
        """Capacity available after congestion shrinkage."""
        return self.capacity_bps * (1.0 - self._congestion)

    @property
    def available_bps(self) -> float:
        return max(self.effective_capacity_bps - self._reserved_bps, 0.0)

    @property
    def oversubscribed(self) -> bool:
        """True when congestion pushed effective capacity below the sum
        of existing reservations — some flow is being violated."""
        return self._reserved_bps > self.effective_capacity_bps + 1e-9

    # -- reservations -------------------------------------------------------------

    def can_reserve(self, bit_rate: float) -> bool:
        # Inlined available_bps: this predicate runs for every link on
        # every route probe, and the property chain costs more than the
        # arithmetic.
        available = (
            self.capacity_bps * (1.0 - self._congestion)
            - self._reserved_bps
        )
        if available < 0.0:
            available = 0.0
        return bit_rate <= available + 1e-9

    def reserve(self, bit_rate: float, holder: str) -> LinkReservation:
        check_positive(bit_rate, "bit_rate")
        if not self.can_reserve(bit_rate):
            raise CapacityError(
                f"link {self.link_id}: requested {bit_rate:.0f} bps, "
                f"available {self.available_bps:.0f} bps"
            )
        reservation_id = next(_reservation_ids)
        reservation = LinkReservation(
            reservation_id, self.link_id, bit_rate, holder
        )
        self._reservations[reservation_id] = reservation
        self._reserved_bps += bit_rate
        return reservation

    def release(self, reservation: "LinkReservation | int") -> None:
        key = (
            reservation.reservation_id
            if isinstance(reservation, LinkReservation)
            else int(reservation)
        )
        record = self._reservations.pop(key, None)
        if record is None:
            raise ReservationError(
                f"link {self.link_id}: no reservation {key}"
            )
        self._reserved_bps -= record.bit_rate
        # Snap float residue: sums of released rates can leave ~1e-9 bps
        # behind, which is twelve orders of magnitude below any real flow.
        if self._reserved_bps < 1e-6:
            self._reserved_bps = 0.0

    def reservations(self) -> tuple[LinkReservation, ...]:
        return tuple(self._reservations.values())

    def holders(self) -> frozenset[str]:
        return frozenset(r.holder for r in self._reservations.values())

    # -- congestion injection -------------------------------------------------------

    def set_congestion(self, fraction: float) -> None:
        """Shrink effective capacity by ``fraction`` (0 = healthy)."""
        self._congestion = check_fraction(fraction, "congestion fraction")

    @property
    def congestion(self) -> float:
        return self._congestion

    def violated_holders(self) -> frozenset[str]:
        """Flows currently hit by oversubscription.

        The cheapest consistent model: when a link is oversubscribed the
        *most recently admitted* flows, whose cumulative rate exceeds the
        effective capacity, are the ones degraded (older flows keep their
        established schedule; late-comers lose first).
        """
        if not self.oversubscribed:
            return frozenset()
        budget = self.effective_capacity_bps
        victims: list[str] = []
        running = 0.0
        # Ids come from one global monotone counter and the ledger only
        # appends and pops, so its order already is reservation-id order.
        for reservation in self._reservations.values():
            running += reservation.bit_rate
            if running > budget + 1e-9:
                victims.append(reservation.holder)
        return frozenset(victims)

    def __repr__(self) -> str:
        return (
            f"Link({self.link_id}: {self.a}<->{self.b}, "
            f"{self.capacity_bps / 1e6:.0f} Mbps, "
            f"reserved {self._reserved_bps / 1e6:.1f} Mbps)"
        )
