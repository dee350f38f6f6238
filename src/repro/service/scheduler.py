"""Seeded cooperative scheduling over the deterministic event loop.

The concurrent negotiation service needs *interleaving* without
*nondeterminism*: thousands of step-5 walks must contend for the same
ledgers, yet a chaos run has to replay byte-for-byte from its seed.
Threads cannot give that; this module does, with plain generators:

* a **task** is a generator that yields instruction objects —
  :class:`Sleep` (park for simulated seconds) or :class:`Switch` (give
  other ready tasks a turn at the same instant);
* the **scheduler** keeps a ready list and drains it from a pump event
  on the :class:`~repro.session.engine.EventLoop`.  When several tasks
  are ready at the same simulated time, the *resume order* is drawn
  from one seeded generator — so every interleaving is reproducible
  from ``seed``, and varying only the seed explores different legal
  interleavings of the same arrival schedule (exactly what the
  concurrency property suite sweeps);
* there is no preemption: code between two yields runs atomically,
  which is what makes journal append-before-apply windows tractable to
  reason about (see DESIGN.md §13 for the yield-point map).

Tasks compose with ``yield from``; a task's ``return`` value goes to
the optional ``on_done`` callback.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Union

from ..util.errors import SessionError
from ..util.rng import RngLike, make_rng
from ..util.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.engine import EventLoop
    from ..telemetry import Telemetry

__all__ = [
    "Sleep",
    "Switch",
    "Op",
    "Task",
    "SchedulerStats",
    "CooperativeScheduler",
]


@dataclass(frozen=True, slots=True)
class Sleep:
    """Park the task for ``delay_s`` simulated seconds."""

    delay_s: float

    def __post_init__(self) -> None:
        check_non_negative(self.delay_s, "delay_s")


@dataclass(frozen=True, slots=True)
class Switch:
    """Yield the processor: other ready tasks run, then this one
    resumes at the *same* simulated time (in seeded order)."""


Op = Union[Sleep, Switch]
Task = Generator[Op, None, Any]


@dataclass(slots=True)
class SchedulerStats:
    """What the scheduler did, for reports and determinism checks."""

    spawned: int = 0
    completed: int = 0
    failed: int = 0
    switches: int = 0
    sleeps: int = 0

    def as_dict(self) -> "dict[str, int]":
        return asdict(self)


# One ready task: its name (for error messages), its generator and the
# callback that receives its return value.
_Ready = tuple[str, Task, Callable[[Any], None] | None]


class CooperativeScheduler:
    """Deterministic cooperative multitasking on one event loop.

    The contract (DESIGN.md §13):

    * same ``(seed, spawn sequence, loop events)`` → same interleaving,
      byte-for-byte;
    * tasks made ready at the same simulated instant resume in an order
      drawn from the seeded generator — *not* FIFO — so seed sweeps
      explore interleavings;
    * between two yields a task is atomic; nothing else runs.
    """

    def __init__(
        self,
        loop: "EventLoop",
        *,
        seed: RngLike = 0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if telemetry is None:
            from ..telemetry import Telemetry as _Telemetry

            telemetry = _Telemetry.disabled()
        self.loop = loop
        self.telemetry = telemetry
        self.stats = SchedulerStats()
        self._rng = make_rng(seed)
        self._ready: "list[_Ready]" = []
        # Set while a pump is pending or draining, cleared only once the
        # ready set is empty: a Switch inside a pump schedules no second
        # pump, so there is one pump event per drain.
        self._pump_armed = False

    def spawn(
        self,
        name: str,
        gen: Task,
        *,
        on_done: "Callable[[Any], None] | None" = None,
    ) -> None:
        """Register a task; its first step runs from the next pump (so
        same-time spawns interleave under the seed like any other ready
        set).  ``on_done`` receives the task's return value."""
        if not hasattr(gen, "send"):
            raise SessionError(
                f"task {name!r} must be a generator, got "
                f"{type(gen).__name__}"
            )
        self.stats.spawned += 1
        self._make_ready((name, gen, on_done))

    # -- machinery -----------------------------------------------------------------

    def _make_ready(self, task: _Ready) -> None:
        self._ready.append(task)
        if not self._pump_armed:
            self._pump_armed = True
            self.loop.at(self.loop.now, self._pump)

    def _pump(self) -> None:
        """Drain the ready set, resuming in seeded order.  A task that
        switches inside the pump is resumed by this same drain.  A task
        that raises leaves the remaining ready set intact and re-arms
        the pump first, so a storm-style catch-and-recover driver can
        resume the survivors."""
        ready = self._ready
        while ready:
            # A draw over one task is 0 and leaves the generator where
            # it was (pinned by tests/service/test_scheduler.py), so
            # skipping it changes no interleaving.
            task = (
                ready.pop(int(self._rng.integers(0, len(ready))))
                if len(ready) > 1
                else ready.pop()
            )
            try:
                self._step(task)
            except BaseException:  # reprolint: backstop -- re-arm the pump for survivors, always re-raise unchanged
                if ready:
                    self.loop.at(self.loop.now, self._pump)
                else:
                    self._pump_armed = False
                raise
        self._pump_armed = False

    def _step(self, task: _Ready) -> None:
        name, gen, on_done = task
        try:
            op = gen.send(None)
        except StopIteration as stop:
            self.stats.completed += 1
            self.telemetry.count("service.tasks", outcome="completed")
            if on_done is not None:
                on_done(stop.value)
            return
        except BaseException:  # reprolint: backstop -- count the failure, always re-raise unchanged
            # Count the failure, then let the error reach the loop's
            # caller — a ManagerCrashError must hit the recovery loop,
            # not vanish into a status field.
            self.stats.failed += 1
            self.telemetry.count("service.tasks", outcome="failed")
            raise
        if isinstance(op, Switch):
            self.stats.switches += 1
            self._make_ready(task)
        elif isinstance(op, Sleep):
            self.stats.sleeps += 1
            self.loop.after(op.delay_s, lambda: self._make_ready(task))
        else:
            raise SessionError(
                f"task {name!r} yielded {op!r}; expected Sleep or Switch"
            )

    def __repr__(self) -> str:
        return (
            f"CooperativeScheduler({self.stats.spawned} spawned, "
            f"{len(self._ready)} ready, {self.stats.switches} switches)"
        )
