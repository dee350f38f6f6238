"""The fault injector: interprets a :class:`FaultPlan` against a live
deployment.

Two delivery mechanisms:

* **Timed state faults** (server crash/restart, server brownout/heal,
  link flap/heal) are
  scheduled on the event loop by :meth:`FaultInjector.arm` — the
  component's own state changes, so the monitor and routing see the
  failure without any hook.  Brownouts and flaps are also how the
  adaptation runs congest a server or a link; overlapping windows on one
  target compose by max severity.
* **Call-level faults** (slow admission, transient refusal, lost
  release) fire inside individual admit/release calls through the thin
  ``fault_hook`` attribute on :class:`~repro.cmfs.server.MediaServer`
  and :class:`~repro.network.transport.TransportSystem` — a single
  ``is None`` check on the happy path, zero overhead when no injector is
  installed.

Everything stochastic (per-call probabilities) draws from one seeded
generator in call order, so a chaos run is exactly reproducible.

The injector indexes its plan by kind once, at construction: a hook
visits only the specs of its own kind, in plan order, and a hook whose
kind the plan lacks returns at once.  A congestion run whose plan holds
only timed brownouts or flaps pays one lookup per admit or release, and
its hooks draw, count and fire nothing (:attr:`FaultInjector.observes_calls`
is false), so a caller that skips a call cannot be told apart from one
that made it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ..util.clock import ManualClock
from ..util.errors import (
    FaultTimeoutError,
    ManagerCrashError,
    SimulationError,
    TransientFaultError,
)
from ..util.rng import make_rng
from .plan import FaultKind, FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cmfs.server import MediaServer
    from ..journal import JournalRecord, ReservationJournal
    from ..network.link import Link
    from ..network.transport import TransportSystem
    from ..session.engine import EventLoop

__all__ = ["FaultStats", "FaultInjector"]

# The kinds a hook acts on inside individual calls: each draws, counts
# or fires per admit, journal append or release.  The other kinds are
# timed state changes scheduled by ``arm``.
PER_CALL_KINDS = frozenset({
    FaultKind.TRANSIENT_REFUSAL,
    FaultKind.SLOW_ADMISSION,
    FaultKind.MANAGER_CRASH,
    FaultKind.LOST_RELEASE,
})


@dataclass(slots=True)
class FaultStats:
    """What the injector actually did — reported by the chaos run."""

    crashes: int = 0
    restarts: int = 0
    link_flaps: int = 0
    link_heals: int = 0
    brownouts: int = 0
    brownout_heals: int = 0
    transient_refusals: int = 0
    slow_admissions: int = 0
    timeouts: int = 0
    lost_releases: int = 0
    manager_crashes: int = 0
    injected_latency_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class FaultInjector:
    """Deterministic fault delivery for one deployment.

    ``attempt_timeout_s`` is the slow-call budget: injected admission
    latency above it surfaces as a retryable
    :class:`~repro.util.errors.FaultTimeoutError` (the caller's
    per-attempt timeout fired); latency at or below it is absorbed and
    only accounted in :attr:`stats`.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        clock: "ManualClock | None" = None,
        attempt_timeout_s: float = 1.0,
    ) -> None:
        self.plan = plan
        self.clock = clock or ManualClock()
        self.attempt_timeout_s = float(attempt_timeout_s)
        self.stats = FaultStats()
        self._rng = make_rng(plan.seed)
        # Each kind's specs with their plan indices, in plan order.
        by_kind: dict[FaultKind, list[tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.faults):
            by_kind.setdefault(spec.kind, []).append((index, spec))
        self._by_kind: dict[FaultKind, tuple[tuple[int, FaultSpec], ...]] = {
            kind: tuple(specs) for kind, specs in by_kind.items()
        }
        self._observes_calls = not PER_CALL_KINDS.isdisjoint(by_kind)
        # Remaining firing budget per spec index (None = unlimited).
        self._budget: dict[int, "int | None"] = {
            i: (int(spec.value) if spec.kind is FaultKind.TRANSIENT_REFUSAL
                and spec.value is not None else None)
            for i, spec in enumerate(plan.faults)
        }
        self._servers: dict[str, "MediaServer"] = {}
        self._transport: "TransportSystem | None" = None
        self._journal: "ReservationJournal | None" = None
        # Manager-crash bookkeeping: opportunities seen and specs
        # already fired (a process dies once per spec).
        self._crash_opportunities: dict[int, int] = {}
        self._crashed_specs: set[int] = set()
        # Severities of the open brownout / flap windows per server or link.
        self._open_levels: dict[object, list[float]] = {}
        self._armed = False

    @property
    def observes_calls(self) -> bool:
        """Does the plan hold a spec of a per-call kind?  Without one,
        ``before_admit``, the crash opportunities and both
        ``intercept_*`` hooks draw nothing, count nothing and fire
        nothing: a call made and a call skipped look the same."""
        return self._observes_calls

    # -- installation --------------------------------------------------------------

    def install(
        self,
        servers: "Mapping[str, MediaServer]",
        transport: "TransportSystem | None" = None,
    ) -> "FaultInjector":
        """Attach the call-level hooks to the fleet and the transport."""
        self._servers = dict(servers)
        for server in self._servers.values():
            server.fault_hook = self
        if transport is not None:
            self._transport = transport
            transport.fault_hook = self
        return self

    def install_journal(
        self, journal: "ReservationJournal"
    ) -> "FaultInjector":
        """Attach the manager-crash hook to the reservation journal.

        The hook fires *after* each record is durable — the crash then
        lands exactly between append and apply, the window the
        write-ahead discipline exists for."""
        for spec in self.plan.for_kind(FaultKind.MANAGER_CRASH):
            if spec.target_id != "manager":
                raise SimulationError(
                    f"crash-manager targets unknown process "
                    f"{spec.target_id!r}; the QoS manager is 'manager'"
                )
        self._journal = journal
        journal.crash_hook = self._after_journal_append
        return self

    def uninstall(self) -> None:
        for server in self._servers.values():
            if server.fault_hook is self:
                server.fault_hook = None
        if self._transport is not None and self._transport.fault_hook is self:
            self._transport.fault_hook = None
        if (
            self._journal is not None
            and self._journal.crash_hook == self._after_journal_append
        ):
            self._journal.crash_hook = None

    def arm(self, loop: "EventLoop") -> None:
        """Schedule the timed state faults (crashes, brownouts, flaps) on
        ``loop``.  Overlapping brownouts on one server, or flaps on one
        link, compose by max severity."""
        if self._armed:
            raise SimulationError("fault injector already armed")
        self._armed = True
        for spec in self.plan.for_kind(FaultKind.SERVER_CRASH):
            server = self._server(spec.target_id)
            loop.at(
                spec.start_s,
                lambda s=server: self._crash(s),
            )
            if spec.end_s is not None:
                loop.at(
                    spec.end_s,
                    lambda s=server: self._restart(s),
                )
        for spec in self.plan.for_kind(FaultKind.SERVER_BROWNOUT):
            server = self._server(spec.target_id)
            severity = 0.5 if spec.value is None else spec.value
            loop.at(
                spec.start_s,
                lambda s=server, sev=severity: self._brownout(s, sev),
            )
            if spec.end_s is not None:
                loop.at(
                    spec.end_s,
                    lambda s=server, sev=severity: self._brownout_heal(s, sev),
                )
        for spec in self.plan.for_kind(FaultKind.LINK_FLAP):
            link = self._link(spec.target_id)
            severity = 1.0 if spec.value is None else spec.value
            loop.at(
                spec.start_s,
                lambda l=link, sev=severity: self._flap(l, sev),
            )
            if spec.end_s is not None:
                loop.at(
                    spec.end_s,
                    lambda l=link, sev=severity: self._heal(l, sev),
                )

    def _server(self, server_id: str) -> "MediaServer":
        try:
            return self._servers[server_id]
        except KeyError:
            raise SimulationError(
                f"fault plan targets unknown server {server_id!r}; "
                "call install() with the fleet first"
            ) from None

    def _link(self, link_id: str) -> "Link":
        if self._transport is None:
            raise SimulationError(
                "fault plan targets a link but no transport is installed"
            )
        return self._transport.topology.link(link_id)

    # -- timed state transitions ---------------------------------------------------

    def _crash(self, server: "MediaServer") -> None:
        server.crash()
        self.stats.crashes += 1

    def _restart(self, server: "MediaServer") -> None:
        server.restart()
        self.stats.restarts += 1

    # Brownouts and flaps set a level, not a toggle: per server or link
    # the level is the largest severity over the windows open at that
    # moment, or 0 when none is.  A weaker window that opens later never
    # lowers a stronger one, and a heal only clears what no other open
    # window still covers.

    def _open_window(self, target: object, severity: float) -> float:
        levels = self._open_levels.setdefault(target, [])
        levels.append(severity)
        return max(levels)

    def _close_window(self, target: object, severity: float) -> float:
        levels = self._open_levels[target]
        levels.remove(severity)
        return max(levels, default=0.0)

    def _brownout(self, server: "MediaServer", severity: float) -> None:
        server.set_degradation(self._open_window(server, severity))
        self.stats.brownouts += 1

    def _brownout_heal(self, server: "MediaServer", severity: float) -> None:
        server.set_degradation(self._close_window(server, severity))
        self.stats.brownout_heals += 1

    def _flap(self, link: "Link", severity: float) -> None:
        link.set_congestion(self._open_window(link, severity))
        self.stats.link_flaps += 1

    def _heal(self, link: "Link", severity: float) -> None:
        link.set_congestion(self._close_window(link, severity))
        self.stats.link_heals += 1

    # -- call-level fault matching -------------------------------------------------

    def _fires(self, index: int, spec: FaultSpec) -> bool:
        """One deterministic yes/no for a matching call."""
        budget = self._budget[index]
        if budget is not None and budget <= 0:
            return False
        if spec.probability < 1.0:
            if float(self._rng.uniform()) >= spec.probability:
                return False
        if budget is not None:
            self._budget[index] = budget - 1
        return True

    def _matching(
        self, kind: FaultKind, target_id: str
    ) -> "Iterable[tuple[int, FaultSpec]]":
        """The specs of ``kind`` aimed at ``target_id`` (or ``*``) whose
        window is open now, in plan order."""
        specs = self._by_kind.get(kind)
        if specs is None:
            return ()
        now = self.clock.now()
        return (
            (index, spec) for index, spec in specs
            if spec.target_id in (target_id, "*") and spec.active_at(now)
        )

    # -- hook interface (called by MediaServer / TransportSystem) ------------------

    def _after_journal_append(self, record: "JournalRecord") -> None:
        """Journal crash hook: each durable record is one opportunity
        for the manager to die (after append, before apply)."""
        self._crash_opportunity()

    def _crash_opportunity(self) -> None:
        """One deterministic point at which the manager may crash.

        Each MANAGER_CRASH spec counts opportunities inside its window
        and fires exactly once, at its ``value``-th one (default the
        first) — so a seeded plan kills the manager at a reproducible
        point of steps 5–6.
        """
        for index, spec in self._matching(FaultKind.MANAGER_CRASH, "manager"):
            if index in self._crashed_specs:
                continue
            seen = self._crash_opportunities.get(index, 0) + 1
            self._crash_opportunities[index] = seen
            kth = 1 if spec.value is None else int(spec.value)
            if seen < kth:
                continue
            self._crashed_specs.add(index)
            self.stats.manager_crashes += 1
            raise ManagerCrashError(
                f"injected manager crash at opportunity {seen} "
                f"(t={self.clock.now():g}s)"
            )

    def before_admit(
        self, server: "MediaServer", variant_id: str, rate_bps: float
    ) -> None:
        """May raise a transient refusal or a slow-call timeout."""
        self._crash_opportunity()
        server_id = server.server_id
        for index, spec in self._matching(
            FaultKind.TRANSIENT_REFUSAL, server_id
        ):
            if self._fires(index, spec):
                self.stats.transient_refusals += 1
                raise TransientFaultError(
                    f"{server_id}: injected transient refusal of "
                    f"{variant_id!r}"
                )
        for index, spec in self._matching(
            FaultKind.SLOW_ADMISSION, server_id
        ):
            if self._fires(index, spec):
                latency = float(spec.value or 0.0)
                self.stats.slow_admissions += 1
                self.stats.injected_latency_s += latency
                if latency > self.attempt_timeout_s + 1e-12:
                    self.stats.timeouts += 1
                    raise FaultTimeoutError(
                        f"{server_id}: admission of {variant_id!r} took "
                        f"{latency:g}s (> {self.attempt_timeout_s:g}s "
                        "per-attempt timeout)"
                    )

    def intercept_stream_release(
        self, server: "MediaServer", stream_id: str
    ) -> bool:
        """True = swallow the release (the reservation leaks)."""
        for index, spec in self._matching(
            FaultKind.LOST_RELEASE, server.server_id
        ):
            if self._fires(index, spec):
                self.stats.lost_releases += 1
                return True
        return False

    def intercept_flow_release(self, flow_id: str) -> bool:
        """True = swallow the flow release (the reservation leaks)."""
        for index, spec in self._matching(FaultKind.LOST_RELEASE, "transport"):
            if self._fires(index, spec):
                self.stats.lost_releases += 1
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"FaultInjector({len(self.plan)} faults, seed {self.plan.seed}, "
            f"armed={self._armed})"
        )
