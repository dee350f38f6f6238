"""The concurrent negotiation service: many §4 procedures in flight.

One :class:`NegotiationService` runs thousands of negotiations as
cooperative tasks (:mod:`repro.service.scheduler`) against one shared
deployment.  The synchronous :meth:`~repro.core.negotiation.QoSManager`
path is untouched; the service layers concurrency on top of the same
primitives:

* **steps 1–4 are pure planning** (:meth:`QoSManager.plan`) — they read
  metadata and client characteristics but never touch the shared
  ledgers, so they run atomically between yields; the plan's offers
  are ordered lazily, one pull per step-5 candidate;
* **step 5 interleaves** — each candidate is reserved through
  :meth:`ResourceCommitter.iter_commit`, which yields before every
  admission/flow call; the service charges each yield ``reservation_step_s``
  of simulated time, so long walks take long and arrivals land *inside*
  other negotiations' walks;
* **deadline budgets** — a negotiation that cannot finish its walk
  within ``deadline_budget_s`` abandons the in-flight candidate (the
  generator's close rolls back and journals RELEASED) and returns an
  honest FAILEDTRYLATER with a breaker-aware hint, instead of hogging
  the scheduler while holding partial reservations;
* **step 6 races are real** — user confirmation and choice-period
  expiry run as their own tasks, so an expiry can fire *between* the
  yield points of an unrelated negotiation, and a confirm landing on
  the deadline tick races the watchdog under the scheduler seed (the
  commitment state machine guarantees exactly one terminal journal
  record either way).

Requests can be routed through an
:class:`~repro.storm.AdmissionGate` (``gate=``): the gate decides
*when* a negotiation task starts and applies its retry/shed policy to
the delivered verdicts, with monotone ``retry_after_s`` hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.classification import ClassifiedOffer, check_top_k, walk_order
from ..core.commitment import EXPIRY_MARGIN_S, Commitment, CommitmentState
from ..core.negotiation import NegotiationResult, Walk
from ..util.errors import ConfirmationTimeout
from ..util.rng import RngLike, make_rng
from ..util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)
from .scheduler import CooperativeScheduler, Sleep, Switch, Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..client.machine import ClientMachine
    from ..core.negotiation import QoSManager
    from ..core.profiles import UserProfile
    from ..core.status import NegotiationStatus
    from ..session.engine import EventLoop
    from ..storm import AdmissionGate
    from ..telemetry import Telemetry

__all__ = [
    "ServicePolicy",
    "ServiceStats",
    "ServiceRequest",
    "NegotiationService",
]


@dataclass(frozen=True, slots=True)
class ServicePolicy:
    """Knobs of one concurrent negotiation service.

    ``reservation_step_s`` is the simulated cost of one reservation
    call (each :meth:`iter_commit` yield sleeps this long);
    ``plan_s`` the cost of steps 1–4.  Both model remote round trips —
    to the metadata database, the media servers and the transport
    system — not manager CPU: the defaults are about 330× and 8× what
    this code measures for the same work (30 µs per reservation call,
    0.6 ms per plan on the wall-clock benchmark), so the "capacity"
    ``repro load`` reports is a property of these two constants, not of
    the code's speed.  ``deadline_budget_s`` bounds a
    negotiation's whole step-5 walk.  ``confirm_delay_s`` ±
    ``confirm_jitter`` is the user's think time before confirming;
    a ``slow_user_fraction`` of users exceed the choice period (their
    reservations expire — the natural step-6 race), and a
    ``reject_fraction`` cancel instead of confirming.  ``hold_s`` is
    the playout hold between confirmation and release.
    """

    max_offers: "int | None" = None
    deadline_budget_s: float = 15.0
    reservation_step_s: float = 0.01
    plan_s: float = 0.005
    confirm_delay_s: float = 2.0
    confirm_jitter: float = 0.5
    slow_user_fraction: float = 0.0
    reject_fraction: float = 0.0
    hold_s: float = 60.0

    def __post_init__(self) -> None:
        check_top_k(self.max_offers, parameter="max_offers")
        check_positive(self.deadline_budget_s, "deadline_budget_s")
        check_non_negative(self.reservation_step_s, "reservation_step_s")
        check_non_negative(self.plan_s, "plan_s")
        check_non_negative(self.confirm_delay_s, "confirm_delay_s")
        check_fraction(self.confirm_jitter, "confirm_jitter")
        check_fraction(self.slow_user_fraction, "slow_user_fraction")
        check_fraction(self.reject_fraction, "reject_fraction")
        check_non_negative(self.hold_s, "hold_s")


@dataclass(slots=True)
class ServiceStats:
    """Service-level counters (per run)."""

    submitted: int = 0
    overruns: int = 0
    confirmations: int = 0
    expiries: int = 0


@dataclass(slots=True)
class ServiceRequest:
    """One request's lifecycle as the service saw it."""

    label: str
    client_id: str
    document_id: str
    submitted_at: float
    started_at: "float | None" = None
    reparked_at: "float | None" = None
    context: "tuple[str, str] | None" = None
    result: "NegotiationResult | None" = None
    finished_at: "float | None" = None
    overrun: bool = False
    confirmed: bool = False
    rejected: bool = False
    expired: bool = False
    released: bool = False

    @property
    def verdict_wait_s(self) -> "float | None":
        """Submission → terminal verdict, in simulated seconds."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def status(self) -> "NegotiationStatus | None":
        return self.result.status if self.result is not None else None


class NegotiationService:
    """Run negotiations concurrently over one shared deployment.

    ``scheduler_seed`` picks the interleaving (the concurrency
    dimension); ``seed`` drives user behaviour (think times, rejects).
    Keeping them separate is what lets the property suite vary the
    interleaving while holding the workload fixed.
    """

    def __init__(
        self,
        manager: "QoSManager",
        loop: "EventLoop",
        *,
        policy: "ServicePolicy | None" = None,
        gate: "AdmissionGate | None" = None,
        scheduler_seed: RngLike = 0,
        seed: RngLike = 0,
        telemetry: "Telemetry | None" = None,
        coalesce: bool = True,
    ) -> None:
        if telemetry is None:
            telemetry = manager.telemetry
        self.manager = manager
        self.loop = loop
        self.policy = policy or ServicePolicy()
        self.gate = gate
        self.telemetry = telemetry
        self.coalesce = coalesce
        self.scheduler = CooperativeScheduler(
            loop, seed=scheduler_seed, telemetry=telemetry
        )
        self.stats = ServiceStats()
        self.requests: "list[ServiceRequest]" = []
        self._rng = make_rng(seed)
        self._inflight = 0
        # Same-tick plan coalescing: class key → shared steps-1–4 plan,
        # valid only at the tick it was computed (cleared on advance).
        # Planning is pure, so sharing the plan cannot change any walk;
        # it only removes the N−1 redundant plan computations when a
        # burst of equivalent requests lands between two yields.  The
        # tick's first plan is held unkeyed (``_held``) until a second
        # plan lands on the same tick.
        self._plan_memo: "dict[tuple, object]" = {}
        self._plan_tick: "float | None" = None
        self._held: "tuple | None" = None

    # -- submission ----------------------------------------------------------------

    def submit(
        self,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
        *,
        label: "str | None" = None,
    ) -> ServiceRequest:
        """Enqueue one negotiation; returns its live request record.

        With a gate, the gate decides when the task starts (and may
        requeue or shed the verdict); without one the task is spawned
        immediately.
        """
        self.stats.submitted += 1
        request = ServiceRequest(
            label=label or f"req-{self.stats.submitted}",
            client_id=client.client_id,
            document_id=document_id,
            submitted_at=self.loop.now,
        )
        self.requests.append(request)
        self._inflight += 1
        if self.telemetry.enabled:
            # Pre-allocate the request's trace identity: children (gate
            # wait, plan, step-5 attempts) land under it while the walk
            # is in flight; the root span itself is emitted at verdict
            # delivery (the profiler's critical-path input).
            request.context = self.telemetry.tracer.new_context()
        self.telemetry.metrics.gauge_set(
            "service.inflight", float(self._inflight)
        )

        def deliver(result: NegotiationResult) -> None:
            self._deliver(request, result)

        if self.gate is not None:
            self.gate.submit_deferred(
                lambda done: self._start(
                    request, document_id, profile, client, done
                ),
                deliver,
            )
        else:
            self._start(request, document_id, profile, client, deliver)
        return request

    def _start(
        self,
        request: ServiceRequest,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
        done: "Callable[[NegotiationResult], None]",
    ) -> None:
        def finished(result: NegotiationResult) -> None:
            # The gate may re-park the request on an FTL verdict; the
            # next dispatch's gate.wait span starts here, not at
            # submission, so park intervals stay disjoint and their sum
            # never exceeds the root span.
            request.reparked_at = self.loop.now
            done(result)

        request.started_at = self.loop.now
        if request.context is not None and self.gate is not None:
            # Gate park time: enqueue (submission, or re-park after an
            # FTL verdict) → dispatch; 0 when admitted on the spot.
            parked_since = (
                request.reparked_at
                if request.reparked_at is not None
                else request.submitted_at
            )
            self.telemetry.tracer.emit(
                "service.gate.wait",
                start_s=parked_since,
                end_s=request.started_at,
                parent=request.context,
                attributes={"label": request.label},
            )
        self.scheduler.spawn(
            f"negotiation:{request.label}",
            self._negotiation_task(request, document_id, profile, client),
            on_done=finished,
        )

    def _deliver(
        self, request: ServiceRequest, result: NegotiationResult
    ) -> None:
        request.result = result
        request.finished_at = self.loop.now
        self._inflight -= 1
        telemetry = self.telemetry
        telemetry.metrics.gauge_set(
            "service.inflight", float(self._inflight)
        )
        telemetry.count("negotiation.outcomes", status=str(result.status))
        telemetry.observe(
            "service.verdict.wait_s", request.verdict_wait_s or 0.0
        )
        if request.context is not None:
            telemetry.tracer.emit(
                "service.negotiation",
                start_s=request.submitted_at,
                end_s=request.finished_at,
                context=request.context,
                attributes={
                    "label": request.label,
                    "status": str(result.status),
                    "overrun": request.overrun,
                },
            )

    # -- same-tick plan coalescing ---------------------------------------------------

    def _plan_coalesced(
        self,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
    ):
        """Steps 1–4 for one request, sharing the plan with any other
        request of the same capability equivalence class that planned
        at this scheduler tick.

        Plans are pure (no ledger reads), so a shared plan is
        content-identical to a private one and the walk outcomes are
        byte-exact with ``coalesce=False``; only the redundant
        classification work disappears.  Unbatchable requests (user
        preferences) always plan privately.

        Class keys are paid for only when a second plan lands on the
        tick: the first is held with a stamp of the two inputs of its
        key that can move between plans (the document's version and the
        client's decoder bank; profiles and clients are otherwise
        frozen), and is keyed then, or dropped if the stamp moved.
        """
        from ..batch.engine import _ClassPlan

        manager = self.manager
        max_offers = self.policy.max_offers

        def plan_fresh():
            return manager.plan(
                document_id, profile, client, max_offers=max_offers
            )

        if not self.coalesce or profile.preferences is not None:
            return plan_fresh()
        memo = self._plan_memo
        now = self.loop.now
        if self._plan_tick != now:
            self._plan_tick = now
            memo.clear()
            shared = _ClassPlan(plan_fresh(), profile)
            self._held = (
                shared, document_id, profile, client,
                self._stamp(document_id, client),
            )
            return shared.member_plan()
        if self._held is not None:
            held, held_document, held_profile, held_client, held_stamp = (
                self._held
            )
            self._held = None
            if self._stamp(held_document, held_client) == held_stamp:
                memo[
                    self._class_key(held_document, held_profile, held_client)
                ] = held
        key = self._class_key(document_id, profile, client)
        shared = memo.get(key)
        if shared is None:
            shared = _ClassPlan(plan_fresh(), profile)
            memo[key] = shared
        else:
            self.telemetry.count("batch.coalesced", site="service")
        assert isinstance(shared, _ClassPlan)
        return shared.member_plan()

    def _stamp(self, document_id: str, client: "ClientMachine") -> tuple:
        return (
            self.manager.database.version_of(document_id),
            client.decoders.version,
        )

    def _class_key(
        self,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
    ) -> tuple:
        from ..batch.classes import BatchRequest, request_class_key

        key = request_class_key(
            self.manager,
            BatchRequest(
                document=document_id,
                profile=profile,
                client=client,
                max_offers=self.policy.max_offers,
            ),
        )
        assert key is not None  # preference requests never get here
        return key

    # -- the cooperative procedure -------------------------------------------------

    def _negotiation_task(
        self,
        request: ServiceRequest,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
    ) -> Task:
        """One negotiation as a task: plan, walk, wrap, arm step 6.

        Returns the :class:`NegotiationResult` (the task's return value
        becomes the delivered verdict)."""
        policy = self.policy
        manager = self.manager
        telemetry = self.telemetry
        started = self.loop.now
        if policy.plan_s > 0.0:
            yield Sleep(policy.plan_s)
        else:
            yield Switch()
        plan = self._plan_coalesced(document_id, profile, client)
        if request.context is not None:
            # Steps 1–4: the Sleep(plan_s) charge plus the atomic plan.
            telemetry.tracer.emit(
                "service.plan",
                start_s=started,
                end_s=self.loop.now,
                parent=request.context,
                attributes={"early": plan.early is not None},
            )
        if plan.early is not None:
            return plan.early
        assert plan.offers is not None and plan.space is not None
        pulled: "list[ClassifiedOffer]" = []
        walk = Walk(
            manager, plan.space, profile, client,
            pulled=pulled,
            rest=plan.offers,
            deadline=started + policy.deadline_budget_s,
            telemetry=telemetry,
            parent=request.context,
        )
        # Parked before a reservation call: charge its cost and let
        # other tasks run in the meantime.
        result = yield from walk.run_cooperative(
            walk_order(plan.offers, plan.policy, pulled),
            Sleep(policy.reservation_step_s)
            if policy.reservation_step_s > 0.0
            else Switch(),
        )
        telemetry.observe("service.walk.switches", float(walk.switches))
        if walk.overrun:
            request.overrun = True
            self.stats.overruns += 1
            telemetry.count("service.deadline.overruns")
        if result.commitment is not None:
            self._arm_step6(request, result.commitment, profile)
        return result

    # -- step 6: confirmation vs expiry, as tasks ----------------------------------

    def _arm_step6(
        self,
        request: ServiceRequest,
        commitment: Commitment,
        profile: "UserProfile",
    ) -> None:
        """Spawn the user's confirm/reject task and the choice-period
        watchdog.  Both route through the scheduler, so when the think
        time lands on the expiry tick their order is a seeded race —
        and the commitment state machine journals exactly one terminal
        transition whichever wins."""
        slow = float(self._rng.uniform(0.0, 1.0)) < (
            self.policy.slow_user_fraction
        )
        spread = 1.0 + self.policy.confirm_jitter * float(
            self._rng.uniform(-1.0, 1.0)
        )
        think_s = self.policy.confirm_delay_s * spread
        if slow:
            think_s += profile.choice_period_s
        reject = float(self._rng.uniform(0.0, 1.0)) < (
            self.policy.reject_fraction
        )
        self.scheduler.spawn(
            f"confirm:{request.label}",
            self._confirm_task(request, commitment, think_s, reject),
        )
        self.scheduler.spawn(
            f"expiry:{request.label}",
            self._expiry_task(request, commitment),
        )

    def _confirm_task(
        self,
        request: ServiceRequest,
        commitment: Commitment,
        think_s: float,
        reject: bool,
    ) -> Task:
        yield Sleep(think_s)
        yield Switch()  # the seeded race position vs the watchdog
        if commitment.state is not CommitmentState.PENDING:
            return  # expiry (or a crash path) resolved it first
        now = self.loop.now
        if reject:
            commitment.reject(now)
            if commitment.state is CommitmentState.REJECTED:
                request.rejected = True
            return
        try:
            commitment.confirm(now)
        except ConfirmationTimeout:
            # The deadline passed before the watchdog fired; confirm()
            # itself expired the commitment — the one EXPIRED record.
            request.expired = True
            self.stats.expiries += 1
            return
        request.confirmed = True
        self.stats.confirmations += 1
        if self.policy.hold_s > 0.0:
            yield Sleep(self.policy.hold_s)
        commitment.release()
        request.released = True

    def _expiry_task(
        self, request: ServiceRequest, commitment: Commitment
    ) -> Task:
        # Wake strictly after the deadline (expiry is ``now > deadline``).
        delay = max(commitment.deadline - self.loop.now, 0.0)
        yield Sleep(delay + EXPIRY_MARGIN_S)
        yield Switch()
        if commitment.state is not CommitmentState.PENDING:
            return  # confirmed, rejected, or already expired
        if commitment.expire_check(self.loop.now):
            request.expired = True
            self.stats.expiries += 1

    # -- reporting -----------------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    def unfinished(self) -> "list[ServiceRequest]":
        """Requests still without a terminal verdict (must be empty
        after the loop drains — anything here is a starved client)."""
        return [r for r in self.requests if r.finished_at is None]
