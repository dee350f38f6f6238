"""Link reservations, congestion, oversubscription."""

import pytest

from repro.network.link import Link
from repro.util.errors import CapacityError, ReservationError


@pytest.fixture
def link():
    return Link("L1", "a", "b", 10e6)


class TestReservations:
    def test_reserve_reduces_availability(self, link):
        link.reserve(4e6, holder="f1")
        assert link.reserved_bps == 4e6
        assert link.available_bps == pytest.approx(6e6)

    def test_over_capacity_rejected(self, link):
        link.reserve(8e6, holder="f1")
        with pytest.raises(CapacityError):
            link.reserve(3e6, holder="f2")

    def test_exact_fill_allowed(self, link):
        link.reserve(10e6, holder="f1")
        assert link.available_bps == 0.0

    def test_release_restores(self, link):
        r = link.reserve(4e6, holder="f1")
        link.release(r)
        assert link.reserved_bps == 0.0

    def test_release_by_id(self, link):
        r = link.reserve(4e6, holder="f1")
        link.release(r.reservation_id)
        assert link.reserved_bps == 0.0

    def test_double_release_rejected(self, link):
        r = link.reserve(4e6, holder="f1")
        link.release(r)
        with pytest.raises(ReservationError):
            link.release(r)

    def test_holders(self, link):
        link.reserve(1e6, holder="f1")
        link.reserve(1e6, holder="f2")
        assert link.holders() == {"f1", "f2"}

    def test_self_loop_rejected(self):
        with pytest.raises(ReservationError):
            Link("L", "a", "a", 1e6)


class TestCongestion:
    def test_effective_capacity_shrinks(self, link):
        link.set_congestion(0.8)
        assert link.effective_capacity_bps == pytest.approx(2e6)

    def test_oversubscription_detected(self, link):
        link.reserve(6e6, holder="f1")
        assert not link.oversubscribed
        link.set_congestion(0.5)
        assert link.oversubscribed

    def test_latest_flows_shed_first(self, link):
        link.reserve(4e6, holder="old")
        link.reserve(4e6, holder="new")
        link.set_congestion(0.5)  # effective 5e6 < 8e6 reserved
        assert link.violated_holders() == {"new"}

    def test_all_shed_under_total_collapse(self, link):
        link.reserve(4e6, holder="a")
        link.reserve(4e6, holder="b")
        link.set_congestion(1.0)
        assert link.violated_holders() == {"a", "b"}

    def test_healing_clears_violations(self, link):
        link.reserve(8e6, holder="f1")
        link.set_congestion(0.5)
        assert link.violated_holders()
        link.set_congestion(0.0)
        assert link.violated_holders() == frozenset()

    def test_congestion_blocks_new_reservations(self, link):
        link.set_congestion(0.9)
        assert not link.can_reserve(2e6)
        with pytest.raises(CapacityError):
            link.reserve(2e6, holder="f1")
