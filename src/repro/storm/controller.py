"""Batched mass re-reservation: the storm controller.

When a brownout sheds dozens of holders at once, the naive active-phase
loop runs the full §4 adaptation procedure for every victim on every
monitor sweep — each one re-walking the whole classified offer list
against servers that mostly cannot commit.  The controller replaces
that per-session reflex with a **wave** discipline:

* violations are buffered (the runtime's ``on_violation`` seam) and
  processed together shortly after the sweep, one wave per burst;
* victims are **batched by capability class** — ``(document_id,
  current_offer_id)`` — because sessions playing the same offer of the
  same document have identical downgrade options: the first member's
  walk discovers the class target, and the rest of the batch starts
  there instead of re-discovering it;
* the **downgrade-in-place fast path** hands each member a short
  candidate list (alternates avoiding the browned-out server first,
  plus the current offer so break-before-make can still revert) —
  :meth:`~repro.core.adaptation.AdaptationManager.adapt` does the
  actual transition, journaling included;
* members the fast path cannot place fall back to the full
  renegotiation walk, and sessions that still fail go on **cooldown**
  until the manager's own ``retry_after_s`` hint (jittered) expires —
  not back into the next sweep's wave;
* sessions that lost their resources entirely are retried on the same
  hint schedule until they recover or exhaust the retry budget (they
  keep playing without guarantees either way, so every session still
  reaches a terminal state).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..core.classification import ClassifiedOffer
from ..util.rng import RngLike, make_rng
from ..session.playout import PlayoutSession, SessionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.monitor import Violation
    from ..session.runtime import SessionRuntime
    from ..telemetry import Telemetry

__all__ = ["StormControllerStats", "StormController"]

_TERMINAL = (SessionState.COMPLETED, SessionState.ABORTED)

WAVE_DELAY_S = 0.5
"""How long violations buffer after the first one before the wave runs."""
MAX_CLASS_CANDIDATES = 4
"""Length of a capability class's fast-path candidate list."""
RETRY_BUDGET = 8
"""Hint-driven retries a session without resources gets."""
JITTER = 0.2
"""Fraction by which cooldowns and retry delays are spread."""


@dataclass(slots=True)
class StormControllerStats:
    """Wave ledger, reported by the storm scenario."""

    waves: int = 0
    sessions_processed: int = 0
    inplace_switches: int = 0
    fallback_switches: int = 0
    failed_downgrades: int = 0
    cooldown_skips: int = 0
    lost_retries: int = 0
    lost_recovered: int = 0

    def as_dict(self) -> "dict[str, int]":
        return asdict(self)


class StormController:
    """Turns per-session adaptation reflexes into batched waves.

    Attaching the controller takes over the runtime's violation
    handling (``adaptation_enabled`` is switched off; the sweep only
    marks victims degraded and hands them here).
    """

    def __init__(
        self,
        runtime: "SessionRuntime",
        *,
        seed: RngLike = 0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if telemetry is None:
            telemetry = runtime.telemetry
        self.runtime = runtime
        self.loop = runtime.loop
        self.telemetry = telemetry
        self.stats = StormControllerStats()
        self._rng = make_rng(seed)
        self._pending: "dict[str, None]" = {}  # ordered session-id set
        self._wave_scheduled = False
        self._cooldown_until: "dict[str, float]" = {}
        self._lost_retries_left: "dict[str, int]" = {}
        # Take over the runtime's violation handling.
        runtime.adaptation_enabled = False
        runtime.on_violation = self.on_violation

    # -- violation intake ----------------------------------------------------------

    def on_violation(self, violation: "Violation") -> None:
        """Buffer one sweep-detected violation into the next wave."""
        self._pending[violation.session_id] = None
        if not self._wave_scheduled:
            self._wave_scheduled = True
            self.loop.after(
                WAVE_DELAY_S, self._run_wave, label="storm:wave"
            )

    # -- the wave ------------------------------------------------------------------

    def _run_wave(self) -> None:
        self._wave_scheduled = False
        now = self.loop.now
        victims: "list[PlayoutSession]" = []
        for session_id in self._pending:
            session = self.runtime.sessions.get(session_id)
            if session is None or session.state in _TERMINAL:
                continue
            if self._cooldown_until.get(session_id, 0.0) > now:
                self.stats.cooldown_skips += 1
                continue
            victims.append(session)
        self._pending.clear()
        if not victims:
            return
        self.stats.waves += 1
        self.telemetry.count("storm.waves")
        with self.telemetry.span(
            "storm.wave", size=len(victims)
        ) as span:
            batches = self._batch_by_class(victims)
            span.set_attribute("classes", len(batches))
            for key in sorted(batches):
                self._process_batch(batches[key], now)

    @staticmethod
    def _batch_by_class(
        victims: "list[PlayoutSession]",
    ) -> "dict[tuple[str, str], list[PlayoutSession]]":
        batches: "dict[tuple[str, str], list[PlayoutSession]]" = {}
        for session in victims:
            space = session.result.offer_space
            document_id = (
                space.document.document_id if space is not None else "?"
            )
            key = (document_id, session.current_offer_id)
            batches.setdefault(key, []).append(session)
        for batch in batches.values():
            batch.sort(key=lambda s: s.session_id)
        return batches

    def _process_batch(
        self, batch: "list[PlayoutSession]", now: float
    ) -> None:
        self.telemetry.observe(
            "storm.wave.batch_size", float(len(batch))
        )
        candidates = self._class_candidates(batch[0])
        for session in batch:
            self.stats.sessions_processed += 1
            outcome_label = self._downgrade(session, candidates, now)
            self.telemetry.count(
                "storm.downgrades", outcome=outcome_label
            )

    def _class_candidates(
        self, representative: PlayoutSession
    ) -> "list[ClassifiedOffer]":
        """The short fast-path list for one capability class: the best
        alternates that avoid degraded machinery, in classified order.
        The representative's exclusions are per-session, so they are
        filtered later, per member — this list is class-wide."""
        degraded = self._degraded_servers()
        classified = representative.result.ensure_classified()
        current_id = representative.current_offer_id
        healthy: "list[ClassifiedOffer]" = []
        tainted: "list[ClassifiedOffer]" = []
        for candidate in classified:
            if candidate.offer.offer_id == current_id:
                continue
            if candidate.offer.servers_used() & degraded:
                tainted.append(candidate)
            else:
                healthy.append(candidate)
        return (healthy + tainted)[:MAX_CLASS_CANDIDATES]

    def _degraded_servers(self) -> "frozenset[str]":
        servers = self.runtime.manager.committer.servers
        return frozenset(
            server_id
            for server_id, server in servers.items()
            if server.is_crashed or server.degradation > 0.0
        )

    def _downgrade(
        self,
        session: PlayoutSession,
        candidates: "list[ClassifiedOffer]",
        now: float,
    ) -> str:
        """Fast path, then full fallback; returns the outcome label."""
        usable = [
            c
            for c in candidates
            if c.offer.offer_id not in session.excluded_offers
        ]
        if session.result.chosen is not None:
            # Keep the current offer in the walk so break-before-make
            # can still revert onto it when no alternate fits.
            usable = usable + [session.result.chosen]
        if usable:
            outcome = session.adapt(
                self.runtime.adaptation, now, candidates=usable
            )
            if outcome.switched:
                self.stats.inplace_switches += 1
                return "in-place"
        # The class target does not fit this member: full walk.
        outcome = session.adapt(self.runtime.adaptation, now)
        if outcome.switched:
            self.stats.fallback_switches += 1
            return "fallback"
        self.stats.failed_downgrades += 1
        self._set_cooldown(session.session_id, now)
        if session.record.resources_lost:
            self._schedule_lost_retry(session, now)
        return "failed"

    # -- hint-driven retries -------------------------------------------------------

    def _set_cooldown(self, session_id: str, now: float) -> None:
        hint = self.runtime.manager.retry_after_hint()
        self._cooldown_until[session_id] = now + self._jittered(hint)

    def _schedule_lost_retry(
        self, session: PlayoutSession, now: float
    ) -> None:
        """A session without resources gets its own retry schedule: the
        sweep only re-buffers *violated* sessions, and a holder with no
        reservations left never shows up in the monitor scan again."""
        left = self._lost_retries_left.setdefault(
            session.session_id, RETRY_BUDGET
        )
        if left <= 0:
            return
        self._lost_retries_left[session.session_id] = left - 1
        self.stats.lost_retries += 1
        hint = self.runtime.manager.retry_after_hint()
        self.loop.after(
            self._jittered(max(hint, 1.0)),
            lambda: self._retry_lost(session),
            label=f"storm:retry:{session.session_id}",
        )

    def _retry_lost(self, session: PlayoutSession) -> None:
        now = self.loop.now
        if (
            session.state in _TERMINAL
            or session.session_id not in self.runtime.sessions
            or not session.record.resources_lost
        ):
            return
        outcome = session.adapt(self.runtime.adaptation, now)
        if not session.record.resources_lost:
            self.stats.lost_recovered += 1
            self._lost_retries_left.pop(session.session_id, None)
            if outcome.switched or outcome.reverted:
                session.clear_degraded(now)
        else:
            self._schedule_lost_retry(session, now)

    def _jittered(self, delay_s: float) -> float:
        spread = JITTER * float(self._rng.uniform(-1.0, 1.0))
        return max(delay_s * (1.0 + spread), 0.0)

    def __repr__(self) -> str:
        return (
            f"StormController({self.stats.waves} waves, "
            f"{len(self._pending)} pending)"
        )
