"""Admission backpressure in front of the QoS manager.

A renegotiation storm is dangerous twice over: the first wave of
violations triggers mass renegotiation, and every request that fails
FAILEDTRYLATER comes straight back — synchronized — until the manager
spends all its time walking offer lists that cannot commit.  The
:class:`AdmissionGate` breaks that loop in front of
:meth:`~repro.core.negotiation.QoSManager.negotiate` /
:meth:`~repro.core.negotiation.QoSManager.renegotiate`:

* a **token bucket** bounds the rate at which negotiation attempts
  reach the manager at all;
* requests that find the bucket empty wait in a **bounded retry
  queue**, re-dispatched at seeded-jitter times (jitter de-synchronizes
  the retry herd — without it every shed request comes back on the same
  tick it was refused on);
* a FAILEDTRYLATER verdict re-parks the request for the hinted
  ``retry_after_s`` (the breaker's quarantine expiry when one is open)
  instead of hammering the manager, up to a bounded retry budget;
* when the queue is full the gate **sheds load** explicitly: the caller
  gets a synthetic FAILEDTRYLATER whose ``retry_after_s`` is an honest
  estimate — time until a token is free plus the time to drain the
  queue ahead of it — not a hardcoded "try later".

Everything is driven off the deterministic event loop and one seeded
generator, so a storm run is exactly reproducible.  With
``enabled=False`` the gate is a pure passthrough; the storm scenario
uses that mode to measure what the thundering herd costs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from ..core.negotiation import NegotiationResult
from ..core.status import NegotiationStatus
from ..util.rng import RngLike, make_rng
from ..util.validation import (
    check_at_least,
    check_fraction,
    check_non_negative,
    check_positive,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.engine import EventLoop
    from ..telemetry import Telemetry

__all__ = ["GatePolicy", "GateStats", "TokenBucket", "AdmissionGate"]

Attempt = Callable[[], NegotiationResult]
Deliver = Callable[[NegotiationResult], None]
Start = Callable[[Deliver], None]


@dataclass(frozen=True, slots=True)
class GatePolicy:
    """Knobs of one admission gate.

    ``rate_per_s``/``burst`` shape the token bucket; ``queue_limit``
    bounds the retry queue (beyond it, requests are shed);
    ``retry_limit`` is how many FAILEDTRYLATER verdicts a request may
    re-park on before the gate passes the failure through to the
    caller; ``jitter`` spreads every scheduled delay by up to that
    fraction either way.
    """

    rate_per_s: float = 4.0
    burst: int = 16
    queue_limit: int = 64
    retry_limit: int = 4
    jitter: float = 0.2
    min_retry_delay_s: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.rate_per_s, "rate_per_s")
        check_at_least(self.burst, 1, "burst", integer=True)
        check_at_least(self.queue_limit, 0, "queue_limit", integer=True)
        check_at_least(self.retry_limit, 0, "retry_limit", integer=True)
        check_fraction(self.jitter, "jitter")
        check_non_negative(self.min_retry_delay_s, "min_retry_delay_s")


@dataclass(slots=True)
class GateStats:
    """What the gate did, for the storm report."""

    submitted: int = 0
    admitted: int = 0
    queued: int = 0
    shed: int = 0
    redispatched: int = 0
    requeued_try_later: int = 0
    delivered: int = 0
    max_queue_depth: int = 0

    def as_dict(self) -> "dict[str, int]":
        return asdict(self)


class TokenBucket:
    """A classic token bucket on simulated time."""

    __slots__ = ("rate_per_s", "burst", "_tokens", "_stamp")

    def __init__(
        self, rate_per_s: float, burst: int, *, now: float = 0.0
    ) -> None:
        self.rate_per_s = check_positive(rate_per_s, "rate_per_s")
        self.burst = int(check_at_least(burst, 1, "burst", integer=True))
        self._tokens = float(self.burst)  # starts full
        self._stamp = float(now)

    def _refill(self, now: float) -> None:
        if now > self._stamp:
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._stamp) * self.rate_per_s,
            )
        self._stamp = max(self._stamp, now)

    def try_take(self, now: float) -> bool:
        """Consume one token if available."""
        self._refill(now)
        if self._tokens >= 1.0 - 1e-12:
            self._tokens -= 1.0
            return True
        return False

    def time_until_token(self, now: float) -> float:
        """How long until one token is available (0 when one is)."""
        self._refill(now)
        if self._tokens >= 1.0 - 1e-12:
            return 0.0
        return (1.0 - self._tokens) / self.rate_per_s

    @property
    def tokens(self) -> float:
        return self._tokens


@dataclass(slots=True)
class _Pending:
    """One request parked in the retry queue.

    ``start`` runs the negotiation when the gate dispatches the request
    and calls back with its verdict; a synchronous attempt is wrapped
    as a start that calls back at once.  ``last_hint_s`` remembers the
    largest manager/breaker ``retry_after_s`` seen on earlier
    FAILEDTRYLATER verdicts, so a later shed surfaces the *max* of the
    gate's own estimate and the known-closed window — hints stay
    monotone no matter which path delivers last.
    """

    start: Start
    deliver: Deliver
    submitted_at: float
    retries_left: int
    last_hint_s: "float | None" = None
    parked_at: float = 0.0
    """When the request last entered the gate's control (submission,
    or the FTL verdict that re-parked it) — the base of the per-dispatch
    ``storm.gate.wait_s`` observation, so waits never double-count the
    time an earlier attempt spent negotiating."""


class AdmissionGate:
    """Token-bucket + bounded-retry-queue front of the QoS manager.

    Callers :meth:`submit` a closure running the actual negotiation and
    a delivery callback; the gate decides *when* the closure runs — now
    (token available), later (parked with jitter), or never (shed, with
    an honest retry hint delivered instead).
    """

    def __init__(
        self,
        loop: "EventLoop",
        *,
        policy: "GatePolicy | None" = None,
        seed: RngLike = 0,
        telemetry: "Telemetry | None" = None,
        enabled: bool = True,
    ) -> None:
        if telemetry is None:
            from ..telemetry import Telemetry as _Telemetry

            telemetry = _Telemetry.disabled()
        self.loop = loop
        self.policy = policy or GatePolicy()
        self.telemetry = telemetry
        self.enabled = enabled
        self.stats = GateStats()
        self.bucket = TokenBucket(
            self.policy.rate_per_s, self.policy.burst, now=loop.now
        )
        self._rng = make_rng(seed)
        self._seq = itertools.count(1)
        # Min-heap of (not_before, seq, pending); seq breaks ties so
        # equal not-befores dispatch in park order, deterministically.
        self._queue: "list[tuple[float, int, _Pending]]" = []

    # -- public surface ------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, attempt: Attempt, deliver: Deliver) -> None:
        """Route one negotiation request through the gate.

        ``attempt`` runs the negotiation (it is only invoked when the
        gate dispatches the request); ``deliver`` receives the terminal
        :class:`NegotiationResult` — possibly a synthetic shed verdict.
        """
        self._enter(lambda done: done(attempt()), deliver)

    def submit_deferred(self, start: Start, deliver: Deliver) -> None:
        """Like :meth:`submit`, for negotiations that finish later.

        ``start`` is invoked when the gate dispatches the request; it
        receives a callback to invoke with the terminal
        :class:`NegotiationResult` once the (cooperative) negotiation
        completes.  The gate applies the same FAILEDTRYLATER
        requeue/shed policy to that verdict as it does to synchronous
        attempts.
        """
        self._enter(start, deliver)

    # -- dispatch machinery --------------------------------------------------------

    def _enter(self, start: Start, deliver: Deliver) -> None:
        """Both public entries: admit, park or shed one request."""
        self.stats.submitted += 1
        pending = _Pending(
            start=start,
            deliver=deliver,
            submitted_at=self.loop.now,
            retries_left=self.policy.retry_limit,
            parked_at=self.loop.now,
        )
        if not self.enabled:
            # Passthrough: the thundering herd, measured for comparison.
            self.stats.admitted += 1
            self._decision("admitted")
            start(lambda result: self._finish(pending, result))
            return
        self._dispatch_or_park(pending)

    def _dispatch_or_park(self, pending: _Pending) -> None:
        now = self.loop.now
        if self.bucket.try_take(now):
            self.stats.admitted += 1
            self._decision("admitted")
            self._run(pending)
        elif len(self._queue) < self.policy.queue_limit:
            self.stats.queued += 1
            self._decision("queued")
            self._park(pending, self.bucket.time_until_token(now))
        else:
            self._shed(pending)

    def _run(self, pending: _Pending) -> None:
        self.telemetry.observe(
            "storm.gate.wait_s", self.loop.now - pending.parked_at
        )
        pending.start(lambda result: self._on_result(pending, result))

    def _on_result(
        self, pending: _Pending, result: NegotiationResult
    ) -> None:
        """Apply the retry/shed policy to one negotiation verdict."""
        if (
            result.status is NegotiationStatus.FAILED_TRY_LATER
            and pending.retries_left > 0
        ):
            # Honour the manager's own hint (breaker quarantine expiry
            # when one is open) instead of guessing.
            pending.retries_left -= 1
            pending.parked_at = self.loop.now
            self.stats.requeued_try_later += 1
            self.telemetry.count("storm.gate.retries")
            hint = result.retry_after_s or self.policy.min_retry_delay_s
            pending.last_hint_s = max(pending.last_hint_s or 0.0, hint)
            if len(self._queue) < self.policy.queue_limit:
                self._park(
                    pending, max(hint, self.policy.min_retry_delay_s)
                )
            else:
                self._shed(pending)
            return
        if result.status is NegotiationStatus.FAILED_TRY_LATER:
            # Terminal pass-through of the manager's refusal: the
            # client's next submission still pays the gate's own
            # readmission cost, so surface the *max* of every hint
            # source — never whichever path happened to run last.
            result.retry_after_s = max(
                result.retry_after_s or 0.0,
                pending.last_hint_s or 0.0,
                self.bucket.time_until_token(self.loop.now),
            )
        self._finish(pending, result)

    def _park(self, pending: _Pending, delay_s: float) -> None:
        not_before = self.loop.now + self._jittered(
            max(delay_s, self.policy.min_retry_delay_s)
        )
        heapq.heappush(
            self._queue, (not_before, next(self._seq), pending)
        )
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._queue)
        )
        self._gauge()
        self.loop.at(not_before, self._pump)

    def _pump(self) -> None:
        """Drain every due queue entry the bucket can pay for."""
        now = self.loop.now
        while self._queue and self._queue[0][0] <= now + 1e-9:
            if not self.bucket.try_take(now):
                # Due but no token: push the head back out by the
                # token wait so the herd stays spread.
                _, _, head = heapq.heappop(self._queue)
                self._gauge()
                self._park(head, self.bucket.time_until_token(now))
                return
            _, _, pending = heapq.heappop(self._queue)
            self._gauge()
            self.stats.redispatched += 1
            self._run(pending)

    def _shed(self, pending: _Pending) -> None:
        """Queue full: refuse explicitly, with an honest hint.

        When an earlier attempt already produced a breaker hint
        (``last_hint_s``), the shed hint is the max of that and the
        gate's own drain estimate — retrying into a known-closed
        quarantine window helps nobody.
        """
        self.stats.shed += 1
        self._decision("shed")
        hint = self._shed_hint()
        if pending.last_hint_s is not None:
            hint = max(hint, pending.last_hint_s)
        self._finish(
            pending,
            NegotiationResult(
                status=NegotiationStatus.FAILED_TRY_LATER,
                retry_after_s=hint,
            ),
        )

    def _shed_hint(self) -> float:
        """When is resubmitting worth it?  After a token frees *and*
        the queue ahead drains at the refill rate."""
        now = self.loop.now
        return (
            self.bucket.time_until_token(now)
            + len(self._queue) / self.policy.rate_per_s
        )

    def _finish(self, pending: _Pending, result: NegotiationResult) -> None:
        self.stats.delivered += 1
        self.telemetry.observe(
            "storm.retry.convergence_s",
            self.loop.now - pending.submitted_at,
        )
        pending.deliver(result)

    # -- small helpers -------------------------------------------------------------

    def _jittered(self, delay_s: float) -> float:
        if self.policy.jitter <= 0.0:
            return delay_s
        spread = self.policy.jitter * float(self._rng.uniform(-1.0, 1.0))
        return max(delay_s * (1.0 + spread), 0.0)

    def _decision(self, decision: str) -> None:
        self.telemetry.count("storm.gate.decisions", decision=decision)

    def _gauge(self) -> None:
        self.telemetry.metrics.gauge_set(
            "storm.queue.depth", float(len(self._queue))
        )

    def __repr__(self) -> str:
        return (
            f"AdmissionGate({'on' if self.enabled else 'passthrough'}, "
            f"{self.queue_depth} queued, "
            f"{self.bucket.tokens:.1f} tokens)"
        )
