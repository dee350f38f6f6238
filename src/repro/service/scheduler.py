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

Tasks compose with ``yield from``; a task's ``return`` value lands on
its :class:`TaskHandle` (and the optional ``on_done`` callback).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
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
    "TaskState",
    "TaskHandle",
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


class TaskState(enum.Enum):
    RUNNING = "running"   # spawned, not yet finished
    DONE = "done"         # returned normally
    FAILED = "failed"     # raised; the error propagated to the loop


@dataclass(slots=True)
class TaskHandle:
    """The caller's view of one spawned task."""

    name: str
    state: TaskState = TaskState.RUNNING
    result: Any = None
    error: "BaseException | None" = None

    @property
    def finished(self) -> bool:
        return self.state is not TaskState.RUNNING


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


@dataclass(slots=True)
class _Running:
    """Internal pairing of a handle with its generator."""

    handle: TaskHandle
    gen: Task
    on_done: "Callable[[TaskHandle], None] | None" = None


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
        self._ready: "list[_Running]" = []
        self._pump_armed = False

    def spawn(
        self,
        name: str,
        gen: Task,
        *,
        on_done: "Callable[[TaskHandle], None] | None" = None,
    ) -> TaskHandle:
        """Register a task; its first step runs from the next pump (so
        same-time spawns interleave under the seed like any other ready
        set)."""
        if not hasattr(gen, "send"):
            raise SessionError(
                f"task {name!r} must be a generator, got "
                f"{type(gen).__name__}"
            )
        handle = TaskHandle(name=name)
        self.stats.spawned += 1
        self._make_ready(_Running(handle=handle, gen=gen, on_done=on_done))
        return handle

    # -- machinery -----------------------------------------------------------------

    def _make_ready(self, task: _Running) -> None:
        self._ready.append(task)
        if not self._pump_armed:
            self._pump_armed = True
            self.loop.at(self.loop.now, self._pump, label="scheduler:pump")

    def _pump(self) -> None:
        """Drain the ready set, resuming in seeded order.  A task that
        raises leaves the remaining ready set intact and re-arms the
        pump first, so a storm-style catch-and-recover driver can
        resume the survivors."""
        self._pump_armed = False
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
                if self._ready and not self._pump_armed:
                    self._pump_armed = True
                    self.loop.at(
                        self.loop.now, self._pump, label="scheduler:pump"
                    )
                raise

    def _step(self, task: _Running) -> None:
        handle = task.handle
        try:
            op = task.gen.send(None)
        except StopIteration as stop:
            handle.state = TaskState.DONE
            handle.result = stop.value
            self.stats.completed += 1
            self.telemetry.count("service.tasks", outcome="completed")
            if task.on_done is not None:
                task.on_done(handle)
            return
        except BaseException as error:  # reprolint: backstop -- mark the handle, always re-raise unchanged
            # Mark the handle, then let the error reach the loop's
            # caller — a ManagerCrashError must hit the recovery loop,
            # not vanish into a status field.
            handle.state = TaskState.FAILED
            handle.error = error
            self.stats.failed += 1
            self.telemetry.count("service.tasks", outcome="failed")
            raise
        if isinstance(op, Switch):
            self.stats.switches += 1
            self._make_ready(task)
        elif isinstance(op, Sleep):
            self.stats.sleeps += 1
            self.loop.after(
                op.delay_s,
                lambda t=task: self._make_ready(t),
                label=f"scheduler:wake:{handle.name}",
            )
        else:
            raise SessionError(
                f"task {handle.name!r} yielded {op!r}; "
                "expected Sleep or Switch"
            )

    def __repr__(self) -> str:
        return (
            f"CooperativeScheduler({self.stats.spawned} spawned, "
            f"{len(self._ready)} ready, {self.stats.switches} switches)"
        )
