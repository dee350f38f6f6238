"""Manual clock semantics."""

import pytest

from repro.util.clock import ManualClock
from repro.util.errors import ValidationError


class TestManualClock:
    def test_starts_at_zero(self):
        assert ManualClock().now() == 0.0

    def test_advance(self):
        clock = ManualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_zero_allowed(self):
        clock = ManualClock()
        clock.advance(1.0)
        clock.advance(0.0)
        assert clock.now() == 1.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValidationError):
            ManualClock().advance(-1)

    def test_advance_to(self):
        clock = ManualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_advance_to_past_rejected(self):
        clock = ManualClock()
        clock.advance(5.0)
        with pytest.raises(ValidationError):
            clock.advance_to(4.0)

    def test_repr_mentions_time(self):
        clock = ManualClock()
        clock.advance(2.0)
        assert "2" in repr(clock)
