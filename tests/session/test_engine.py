"""Discrete-event loop: ordering, round-off, run_until, periodic tasks."""

import pytest

from repro.session.engine import EventLoop
from repro.util.clock import ManualClock
from repro.util.errors import SessionError


@pytest.fixture
def loop():
    return EventLoop(ManualClock())


class TestScheduling:
    def test_events_fire_in_time_order(self, loop):
        fired = []
        loop.at(2.0, lambda: fired.append("b"))
        loop.at(1.0, lambda: fired.append("a"))
        loop.at(3.0, lambda: fired.append("c"))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self, loop):
        fired = []
        for name in "abc":
            loop.at(1.0, lambda n=name: fired.append(n))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, loop):
        seen = []
        loop.at(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [5.0]
        assert loop.now == 5.0

    def test_after_is_relative(self, loop):
        loop.clock.advance(10.0)
        fired = []
        loop.after(2.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [12.0]

    def test_past_scheduling_rejected(self, loop):
        loop.clock.advance(5.0)
        with pytest.raises(SessionError):
            loop.at(4.0, lambda: None)

    def test_round_off_below_now_fires_at_now(self):
        # Within the 1e-12 tolerance, but below the clock: it used to be
        # accepted and then refused by advance_to when it fired.
        clock = ManualClock()
        clock.advance(5.0)
        loop = EventLoop(clock)
        fired = []
        loop.at(5.0, lambda: fired.append(("first", loop.now)))
        loop.at(5.0 - 1e-13, lambda: fired.append(("late", loop.now)))
        loop.at(5.0, lambda: fired.append(("third", loop.now)))
        loop.run()
        assert fired == [("first", 5.0), ("late", 5.0), ("third", 5.0)]

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, loop, time):
        # A NaN time compares False with everything, so it used to slip
        # past the past-time check and fire wherever the heap put it.
        with pytest.raises(SessionError, match="non-finite"):
            loop.at(time, lambda: None)
        assert loop.pending == 0

    def test_events_can_schedule_events(self, loop):
        fired = []

        def first():
            fired.append("first")
            loop.after(1.0, lambda: fired.append("second"))

        loop.at(1.0, first)
        loop.run()
        assert fired == ["first", "second"]
        assert loop.now == 2.0


class TestRunUntil:
    def test_stops_at_boundary(self, loop):
        fired = []
        loop.at(1.0, lambda: fired.append(1))
        loop.at(2.0, lambda: fired.append(2))
        loop.at(3.0, lambda: fired.append(3))
        loop.run_until(2.0)
        assert fired == [1, 2]
        assert loop.now == 2.0

    def test_advances_clock_when_idle(self, loop):
        loop.run_until(7.5)
        assert loop.now == 7.5


class TestPeriodic:
    def test_every_until(self, loop):
        ticks = []
        loop.every(1.0, lambda: ticks.append(loop.now), until=3.5)
        loop.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_unbounded_every_guarded(self, loop):
        loop.every(0.001, lambda: None)
        with pytest.raises(SessionError, match="exceeded"):
            loop.run(max_events=100)

    def test_zero_period_rejected(self, loop):
        with pytest.raises(SessionError):
            loop.every(0.0, lambda: None)

    @pytest.mark.parametrize("period", [float("nan"), float("inf")])
    def test_non_finite_period_rejected(self, loop, period):
        with pytest.raises(SessionError, match="finite"):
            loop.every(period, lambda: None)
        assert loop.pending == 0

