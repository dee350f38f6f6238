"""Simulation clock.

All time-dependent behaviour (confirmation deadlines, playout progress,
violation timing) reads an explicit clock object instead of wall time,
so tests and experiments are deterministic and can jump time freely.
"""

from __future__ import annotations

from ..util.errors import ValidationError

__all__ = ["ManualClock"]


class ManualClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, delta_s: float) -> float:
        if delta_s < 0:
            raise ValidationError(f"cannot advance by {delta_s}")
        self._now += float(delta_s)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        if timestamp < self._now:
            raise ValidationError(
                f"cannot move clock backwards ({timestamp} < {self._now})"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"ManualClock(t={self._now:g}s)"
