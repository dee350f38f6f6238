"""Discrete-event simulation engine.

A minimal, deterministic event loop shared by the playout sessions, the
QoS monitor and the congestion injector.  Events at equal timestamps
fire in scheduling order (a monotone sequence number breaks ties), so
runs are exactly reproducible.

The engine owns a :class:`~repro.util.clock.ManualClock`; handing the
same clock to the :class:`~repro.core.negotiation.QoSManager` makes
confirmation deadlines and playout time share one timeline.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from ..util.clock import ManualClock
from ..util.errors import SessionError
from ..util.validation import check_non_negative

__all__ = ["EventLoop"]


class EventLoop:
    """A heap-based event loop over a manual clock.  The heap holds
    ``(time, sequence, callback)`` entries; ``(time, sequence)`` is
    unique per entry, so the heap never compares two callbacks."""

    def __init__(self, clock: ManualClock | None = None) -> None:
        self.clock = clock or ManualClock()
        self._queue: "list[tuple[float, int, Callable[[], None]]]" = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- scheduling -------------------------------------------------------------

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time``.  A time up to
        1e-12 s before now (float round-off) fires at now, as if it had
        been scheduled there: the clock never moves backwards."""
        time = float(time)
        if not math.isfinite(time):
            raise SessionError(f"cannot schedule at non-finite t={time}")
        now = self.clock.now()
        if time < now:
            if time < now - 1e-12:
                raise SessionError(
                    f"cannot schedule at t={time:g}s in the past (now {now:g}s)"
                )
            time = now
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        check_non_negative(delay, "delay")
        self.at(self.now + delay, callback)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        until: "float | None" = None,
    ) -> None:
        """Schedule ``callback`` periodically, starting one period from
        now, optionally stopping at ``until``."""
        if not (math.isfinite(period) and period > 0):
            raise SessionError(
                f"period must be positive and finite, got {period}"
            )

        def tick() -> None:
            callback()
            next_time = self.now + period
            if until is None or next_time <= until + 1e-12:
                self.at(next_time, tick)

        first = self.now + period
        if until is None or first <= until + 1e-12:
            self.at(first, tick)

    # -- execution -----------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; False when the queue is empty."""
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        self.clock.advance_to(time)
        callback()
        return True

    def run_until(self, time: float) -> None:
        """Fire every event up to and including ``time``, then advance
        the clock to exactly ``time``."""
        queue = self._queue
        while queue and queue[0][0] <= time + 1e-12:
            self.step()
        if time > self.now:
            self.clock.advance_to(time)

    def run(self, *, max_events: int = 1_000_000) -> None:
        """Drain the queue (bounded to catch runaway self-scheduling)."""
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events:
                raise SessionError(
                    f"event loop exceeded {max_events} events; "
                    "likely an unbounded periodic task"
                )

    def __repr__(self) -> str:
        return f"EventLoop(t={self.now:g}s, pending={self.pending})"
