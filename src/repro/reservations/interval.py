"""Interval ledgers: capacity bookings over future time windows.

The paper's companion work [Haf 96] ("Quality of Service Negotiation
with Future Reservations") extends the negotiation to bookings for a
*future* playout window — the time profile of §3 already lets the user
state a delivery time.  The primitive that enables it is an interval
ledger: a resource with fixed capacity whose bookings occupy time
windows, with feasibility defined by the peak of overlapping demand.

The ledger is exact (sweep-line over booking endpoints), not an
approximation: ``available(start, end)`` returns the capacity remaining
at the *most loaded instant* of the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..util.errors import CapacityError, ReservationError
from ..util.validation import check_positive

__all__ = ["IntervalBooking", "IntervalLedger"]

_booking_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class IntervalBooking:
    """One hold on a resource over ``[start_s, end_s)``."""

    booking_id: int
    start_s: float
    end_s: float
    amount: float
    holder: str

    def overlaps(self, start_s: float, end_s: float) -> bool:
        return self.start_s < end_s and start_s < self.end_s

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class IntervalLedger:
    """Bookable capacity over time."""

    def __init__(self, resource_id: str, capacity: float) -> None:
        self.resource_id = resource_id
        self.capacity = check_positive(capacity, "capacity")
        self._bookings: dict[int, IntervalBooking] = {}

    # -- queries ------------------------------------------------------------------

    def bookings(self) -> tuple[IntervalBooking, ...]:
        return tuple(self._bookings.values())

    def __len__(self) -> int:
        return len(self._bookings)

    def peak_usage(self, start_s: float, end_s: float) -> float:
        """Maximum aggregate booked amount over any instant of the
        window (sweep over the overlapping bookings' endpoints)."""
        if end_s <= start_s:
            raise ReservationError(
                f"window must be non-empty, got [{start_s}, {end_s})"
            )
        overlapping = [
            b for b in self._bookings.values() if b.overlaps(start_s, end_s)
        ]
        if not overlapping:
            return 0.0
        events: list[tuple[float, float]] = []
        for booking in overlapping:
            events.append((max(booking.start_s, start_s), booking.amount))
            events.append((min(booking.end_s, end_s), -booking.amount))
        # Half-open intervals: at a shared endpoint the ending booking
        # releases before the starting one acquires, so negative deltas
        # sort first.
        events.sort(key=lambda item: (item[0], item[1]))
        peak = 0.0
        level = 0.0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    def available(self, start_s: float, end_s: float) -> float:
        """Capacity still bookable over the whole window."""
        return max(self.capacity - self.peak_usage(start_s, end_s), 0.0)

    def can_book(self, start_s: float, end_s: float, amount: float) -> bool:
        return amount <= self.available(start_s, end_s) + 1e-9

    def usage_at(self, instant_s: float) -> float:
        """Aggregate booked amount at one instant."""
        return sum(
            b.amount
            for b in self._bookings.values()
            if b.start_s <= instant_s < b.end_s
        )

    # -- mutation -------------------------------------------------------------------

    def book(
        self, start_s: float, end_s: float, amount: float, holder: str
    ) -> IntervalBooking:
        check_positive(amount, "amount")
        if end_s <= start_s:
            raise ReservationError(
                f"booking window must be non-empty, got [{start_s}, {end_s})"
            )
        if not self.can_book(start_s, end_s, amount):
            raise CapacityError(
                f"{self.resource_id}: {amount:.0f} over [{start_s:g}, "
                f"{end_s:g}) exceeds available "
                f"{self.available(start_s, end_s):.0f}"
            )
        booking = IntervalBooking(
            booking_id=next(_booking_ids),
            start_s=float(start_s),
            end_s=float(end_s),
            amount=float(amount),
            holder=holder,
        )
        self._bookings[booking.booking_id] = booking
        return booking

    def release(self, booking: "IntervalBooking | int") -> None:
        key = (
            booking.booking_id
            if isinstance(booking, IntervalBooking)
            else int(booking)
        )
        if self._bookings.pop(key, None) is None:
            raise ReservationError(
                f"{self.resource_id}: no booking {key}"
            )

    def __repr__(self) -> str:
        return (
            f"IntervalLedger({self.resource_id}, capacity={self.capacity:g}, "
            f"{len(self._bookings)} bookings)"
        )
