"""Interval ledger: sweep-line peak usage and booking semantics."""

import pytest

from repro.reservations.interval import IntervalLedger
from repro.util.errors import CapacityError, ReservationError


@pytest.fixture
def ledger():
    return IntervalLedger("L", 10.0)


class TestBooking:
    def test_book_and_release(self, ledger):
        booking = ledger.book(0.0, 10.0, 4.0, "h1")
        assert len(ledger) == 1
        ledger.release(booking)
        assert len(ledger) == 0

    def test_release_by_id(self, ledger):
        booking = ledger.book(0.0, 10.0, 4.0, "h1")
        ledger.release(booking.booking_id)
        assert len(ledger) == 0

    def test_double_release_rejected(self, ledger):
        booking = ledger.book(0.0, 10.0, 4.0, "h1")
        ledger.release(booking)
        with pytest.raises(ReservationError):
            ledger.release(booking)

    def test_empty_window_rejected(self, ledger):
        with pytest.raises(ReservationError):
            ledger.book(5.0, 5.0, 1.0, "h")

    def test_over_capacity_rejected(self, ledger):
        ledger.book(0.0, 10.0, 8.0, "h1")
        with pytest.raises(CapacityError):
            ledger.book(5.0, 15.0, 3.0, "h2")

    def test_disjoint_windows_independent(self, ledger):
        ledger.book(0.0, 10.0, 10.0, "h1")
        ledger.book(10.0, 20.0, 10.0, "h2")  # no overlap: [10, 20) ok
        assert len(ledger) == 2

    def test_exact_fill(self, ledger):
        ledger.book(0.0, 10.0, 6.0, "h1")
        ledger.book(0.0, 10.0, 4.0, "h2")
        assert ledger.available(0.0, 10.0) == pytest.approx(0.0)


class TestPeakUsage:
    def test_peak_of_staircase(self, ledger):
        # [0,4): 2   [2,6): 3   [5,9): 4  -> peak 2+3=5 on [2,4), 3+4=7 on [5,6)
        ledger.book(0.0, 4.0, 2.0, "a")
        ledger.book(2.0, 6.0, 3.0, "b")
        ledger.book(5.0, 9.0, 4.0, "c")
        assert ledger.peak_usage(0.0, 10.0) == pytest.approx(7.0)
        assert ledger.peak_usage(0.0, 5.0) == pytest.approx(5.0)
        assert ledger.peak_usage(9.0, 10.0) == pytest.approx(0.0)

    def test_touching_intervals_do_not_stack(self, ledger):
        ledger.book(0.0, 5.0, 6.0, "a")
        ledger.book(5.0, 10.0, 6.0, "b")
        # Half-open windows: at t=5 only the second booking is active.
        assert ledger.peak_usage(0.0, 10.0) == pytest.approx(6.0)

    def test_usage_at_instant(self, ledger):
        ledger.book(0.0, 5.0, 3.0, "a")
        assert ledger.usage_at(2.0) == 3.0
        assert ledger.usage_at(5.0) == 0.0

    def test_available_clamped_non_negative(self):
        ledger = IntervalLedger("L", 5.0)
        ledger.book(0.0, 10.0, 5.0, "a")
        assert ledger.available(0.0, 10.0) == 0.0
