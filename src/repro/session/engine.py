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

__all__ = ["ScheduledEvent", "EventLoop"]


class ScheduledEvent:
    """One pending callback.  Not orderable: the loop's heap holds
    ``(time, sequence, event)`` entries, and ``(time, sequence)`` is
    unique per entry, so the heap never compares two events."""

    __slots__ = ("time", "sequence", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """A heap-based event loop over a manual clock."""

    def __init__(self, clock: ManualClock | None = None) -> None:
        self.clock = clock or ManualClock()
        self._queue: "list[tuple[float, int, ScheduledEvent]]" = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def pending(self) -> int:
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def processed(self) -> int:
        return self._processed

    # -- scheduling -------------------------------------------------------------

    def at(self, time: float, callback: Callable[[], None], *, label: str = "") -> ScheduledEvent:
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
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, callback, label)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def after(self, delay: float, callback: Callable[[], None], *, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        check_non_negative(delay, "delay")
        return self.at(self.now + delay, callback, label=label)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        label: str = "",
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
                self.at(next_time, tick, label=label)

        first = self.now + period
        if until is None or first <= until + 1e-12:
            self.at(first, tick, label=label)

    # -- execution -----------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; False when the queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(time)
            event.callback()
            self._processed += 1
            return True
        return False

    def run_until(self, time: float) -> None:
        """Fire every event up to and including ``time``, then advance
        the clock to exactly ``time``."""
        queue = self._queue
        while queue:
            head_time, _, head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                continue
            if head_time > time + 1e-12:
                break
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
