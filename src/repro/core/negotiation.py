"""The QoS manager and the six-step negotiation procedure (paper §4).

Inputs: "the document to be played and the user profile selected by the
user"; output: "the negotiation status and possibly a user offer".  The
steps, in order:

1. **Static local negotiation** — client machine characteristics vs the
   requested QoS → FAILEDWITHLOCALOFFER (with the best locally
   presentable QoS as the returned offer).
2. **Static compatibility checking** — variant codecs vs client
   decoders → FAILEDWITHOUTOFFER when nothing decodable remains.
3. **Computation of classification parameters** — SNS + OIF per
   feasible offer.
4. **Classification of system offers** — best → worst (policy
   configurable, see :mod:`repro.core.classification`).
5. **Resource commitment** — walk the list (offers satisfying the
   requested QoS *and* cost first, then the remaining feasible offers,
   always in classified order), reserving server + network resources
   with rollback → SUCCEEDED / FAILEDWITHOFFER / FAILEDTRYLATER.
6. **User confirmation** — the returned :class:`Commitment` must be
   confirmed within ``choicePeriod`` or the reservation evaporates.

Steps 3–4 produce one lazily ordered offer list; step 5 walks it in
:func:`~repro.core.classification.walk_order`.  The result keeps the
prefix the walk pulled plus the continuation: "during the active
phase, if QoS violations occur the adaptation procedure makes use of
the whole set of feasible system offers" (§4), drained on demand by
:meth:`NegotiationResult.ensure_classified`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Generator,
    Iterable,
    Iterator,
    Mapping,
    TypeVar,
)

from ..client.machine import ClientMachine
from ..cmfs.server import MediaServer
from ..documents.document import Document
from ..documents.media import Medium
from ..documents.quality import MediaQoS
from ..faults.health import CircuitBreaker
from ..faults.retry import RetryPolicy
from ..journal import ReservationJournal
from ..metadata.database import MetadataDatabase
from ..network.transport import GuaranteeType, TransportSystem
from ..telemetry import NULL_SPAN, NegotiationReport, Telemetry
from ..util.clock import ManualClock
from ..util.errors import NegotiationError
from .classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    check_top_k,
    walk_order,
)
from .commitment import (
    Commitment,
    RefusalMemo,
    ReservationBundle,
    ResourceCommitter,
)
from .cost import CostModel, default_cost_model
from .enumeration import OfferSpace, build_offer_space
from .importance import ImportanceProfile, default_importance
from .mapping import QoSMapper
from .profiles import MMProfile, UserProfile
from .status import NegotiationStatus
from .stream import stream_classified, user_offer_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.cache import NegotiationCache
    from .preferences import UserPreferences

__all__ = [
    "DEFAULT_RETRY_AFTER_S",
    "NegotiationPlan",
    "NegotiationResult",
    "QoSManager",
    "Walk",
]

_Park = TypeVar("_Park")

DEFAULT_RETRY_AFTER_S = 30.0
"""Retry-after hint on FAILEDTRYLATER when no breaker knows better —
roughly the time scale on which playing sessions end and free capacity."""

_DEFAULT_IMPORTANCE = default_importance()
"""The importance of every profile that carries none: one read-only
instance, so such requests share its key and its fingerprint."""


@dataclass(slots=True)
class NegotiationResult:
    """Status + user offer + everything adaptation needs later.

    For every step-5 verdict — SUCCEEDED, FAILEDWITHOFFER and
    FAILEDTRYLATER alike — ``classified`` holds only the prefix of the
    classified order the commitment walk pulled from the plan's offers
    (a FAILEDTRYLATER walk pulled all of it); ``_rest`` keeps the
    unconsumed continuation.  :meth:`ensure_classified` drains it on
    demand — adaptation still gets "the whole set of feasible system
    offers" (§4), it just pays for them only when a violation occurs.
    """

    status: NegotiationStatus
    user_offer: MMProfile | None = None
    chosen: ClassifiedOffer | None = None
    commitment: Commitment | None = None
    classified: list[ClassifiedOffer] = field(default_factory=list)
    offer_space: OfferSpace | None = None
    local_violations: dict[Medium, tuple[str, ...]] = field(default_factory=dict)
    attempts: int = 0
    memo_skips: int = 0  # attempts the walk's refusal memo answered
    retry_after_s: "float | None" = None  # hint accompanying FAILEDTRYLATER
    report: "NegotiationReport | None" = None  # trace-derived step account
    _rest: "Iterator[ClassifiedOffer] | None" = field(
        default=None, repr=False
    )

    @property
    def succeeded(self) -> bool:
        return self.status.is_success

    def ensure_classified(self) -> list[ClassifiedOffer]:
        """The complete classified list, draining any unconsumed
        remainder (classified order is preserved: the consumed prefix
        and the continuation come from the same ordered offers)."""
        if self._rest is not None:
            self.classified.extend(self._rest)
            self._rest = None
        return self.classified

    def summary(self) -> str:
        lines = [f"negotiation status: {self.status}"]
        if self.user_offer is not None:
            lines.append(f"user offer: {self.user_offer.describe()}")
        if self.chosen is not None:
            lines.append(f"chosen: {self.chosen}")
        lines.append(f"offers classified: {len(self.classified)}")
        lines.append(f"commitment attempts: {self.attempts}")
        if self.retry_after_s is not None:
            lines.append(f"retry after: {self.retry_after_s:g}s")
        return "\n".join(lines)


@dataclass(slots=True)
class NegotiationPlan:
    """The outcome of steps 1–4, ready for a step-5 commitment walk.

    Either ``early`` is set (the procedure already ended in step 1 or
    2) or ``offers`` is: the feasible offers in classified order,
    produced lazily — an offer is classified and materialised when the
    walk pulls it.  ``offers_in`` is how many it will yield.  The
    concurrent service plans synchronously — steps 1–4 touch no shared
    ledgers — and then walks step 5 cooperatively, yielding between
    reservations.

    ``policy`` is the classification policy the offers were ordered
    under (a per-call override, not necessarily the manager default);
    the walk relies on it to know when no user-satisfying offer can
    follow (:func:`~repro.core.classification.walk_order`).
    """

    early: "NegotiationResult | None" = None
    space: "OfferSpace | None" = None
    offers: "Iterator[ClassifiedOffer] | None" = None
    offers_in: int = 0
    policy: "ClassificationPolicy | None" = None


class Walk:
    """One step-5 walk (§4): try the candidates in the order given, the
    first that reserves server *and* network wins, an exhausted list is
    FAILEDTRYLATER.

    The walk owns what every step-5 site shares: the holder, the
    counters, the optional deadline, the per-candidate decision
    (breaker skip → attempt → dropped-offer count), the close (the one
    :class:`Commitment`, or :meth:`ResourceCommitter.end_walk` with its
    reason) and the verdict.  ``pulled`` is what the caller's candidate
    order took from the plan's offers and ``rest`` their unpulled
    continuation; both go into the result as they stand when the walk
    ends.

    Two drivers consume it and differ only in where they yield and how
    they emit spans.  :meth:`run` is atomic: nothing else touches the
    ledgers between its attempts, so it calls ``try_commit`` directly
    and keeps the walk-local :class:`RefusalMemo`.
    :meth:`run_cooperative` parks before every reservation call of
    ``iter_commit`` and honours ``deadline``; it has no memo, because
    other tasks move the ledgers while it is parked.
    """

    __slots__ = (
        "manager", "committer", "telemetry", "space", "profile",
        "access_point", "guarantee", "holder", "pulled", "rest",
        "deadline", "parent", "now", "memo", "attempts", "breaker_skips",
        "switches", "overrun",
    )

    def __init__(
        self,
        manager: "QoSManager",
        space: OfferSpace,
        profile: UserProfile,
        client: ClientMachine,
        *,
        pulled: "list[ClassifiedOffer]",
        rest: "Iterator[ClassifiedOffer] | None" = None,
        guarantee: "GuaranteeType | None" = None,
        holder: "str | None" = None,
        deadline: "float | None" = None,
        telemetry: "Telemetry | None" = None,
        parent: "tuple[str, str] | None" = None,
    ) -> None:
        self.manager = manager
        self.committer = manager.committer
        self.telemetry = telemetry or manager.telemetry
        self.space = space
        self.profile = profile
        self.access_point = client.access_point
        self.guarantee = guarantee or manager.guarantee
        self.holder = holder or manager.new_holder()
        self.pulled = pulled
        self.rest = rest
        self.deadline = deadline
        self.parent = parent  # trace identity the cooperative spans hang under
        self.now = manager.clock.now
        self.memo: "RefusalMemo | None" = None
        self.attempts = 0
        self.breaker_skips = 0
        self.switches = 0  # yields of the cooperative driver
        self.overrun = False

    @property
    def memo_skips(self) -> int:
        """Attempts the refusal memo answered (0 without one)."""
        return self.memo.skips if self.memo is not None else 0

    # -- the rules both drivers share ------------------------------------------------

    def _admits(self, candidate: ClassifiedOffer) -> bool:
        """The decision before any reservation call.  An offer using a
        quarantined (circuit-open) server is skipped outright — the
        walk degrades to alternate-server variants instead of spending
        its retry budget against a machine known to be failing — and
        counted here, once; anything else is an attempt.

        The servers are asked in the order the offer first uses them
        and the first refusal ends the asking, so which due breaker
        turns half-open here never follows string hashing (``allow``
        answers a server asked twice in one instant the same way)."""
        health = self.committer.health
        if health is not None:
            now = self.now()
            if not all(
                health.allow(variant.server_id, now)
                for variant in candidate.offer.variants.values()
            ):
                self.committer.stats.breaker_skips += 1
                self.breaker_skips += 1
                self.telemetry.count("breaker.skips")
                self.telemetry.count("negotiation.offers.dropped", step="5")
                return False
        self.attempts += 1
        return True

    def _overdue(self) -> bool:
        if self.deadline is not None and self.now() >= self.deadline:
            self.overrun = True
        return self.overrun

    def _settle(
        self,
        candidate: ClassifiedOffer,
        bundle: "ReservationBundle | None",
        trace_context: "tuple[str, str] | None" = None,
    ) -> "NegotiationResult | None":
        """After an attempt: a refused offer is dropped and the walk
        goes on (``None``); a bundle ends it.  The driver must not
        yield between the attempt's return and this call — the
        ``RESERVED`` record lands while the ``INTENT`` window is still
        the walk's."""
        if bundle is None:
            self.telemetry.count("negotiation.offers.dropped", step="5")
            return None
        commitment = Commitment(
            bundle,
            self.committer,
            reserved_at=self.now(),
            choice_period_s=self.profile.choice_period_s,
            telemetry=self.telemetry,
            trace_context=trace_context,
        )
        return self._verdict(candidate, commitment)

    def _give_up(self) -> NegotiationResult:
        """No candidate committed — "the whole set of the feasible
        system offers are considered and no resources are available"
        (§4 step 5), or the deadline budget ran out.  Failed attempts
        journal nothing, so the walk's ``INTENT`` (if any attempt
        opened one and no closed generator resolved it) is closed
        here."""
        self.committer.end_walk(
            self.holder, "abandoned" if self.overrun else "commit-failed"
        )
        return self._verdict()

    def _verdict(
        self,
        chosen: "ClassifiedOffer | None" = None,
        commitment: "Commitment | None" = None,
    ) -> NegotiationResult:
        if chosen is None:
            status = NegotiationStatus.FAILED_TRY_LATER
        elif chosen.satisfies_user:
            status = NegotiationStatus.SUCCEEDED
        else:
            status = NegotiationStatus.FAILED_WITH_OFFER
        return NegotiationResult(
            status=status,
            user_offer=(
                None if chosen is None
                else user_offer_for(
                    self.space, chosen.offer, self.profile.desired.time
                )
            ),
            chosen=chosen,
            commitment=commitment,
            classified=self.pulled,
            offer_space=self.space,
            attempts=self.attempts,
            memo_skips=self.memo_skips,
            retry_after_s=(
                self.manager.retry_after_hint() if chosen is None else None
            ),
            _rest=self.rest,
        )

    # -- the two drivers -------------------------------------------------------------

    def run(
        self, candidates: "Iterable[ClassifiedOffer]", *, offers_in: int
    ) -> NegotiationResult:
        """The atomic driver.  An offer that would repeat an admission
        call already refused in this walk is a memo skip: it still
        counts as an attempt (the chosen offer's position in walk
        order does not move), it just costs no reservation call."""
        telemetry = self.telemetry
        tracer = telemetry.tracer
        try_commit = self.committer.try_commit
        memo = self.memo = RefusalMemo()
        with telemetry.span(
            "negotiation.step5.commit",
            offers_in=offers_in,
            holder=self.holder,
        ) as sp5:
            anchor = telemetry.tracer.root_context()
            result = None
            for candidate in candidates:
                offer = candidate.offer
                # Decided before the span opens: a transition the breaker
                # notices while answering emits its own span, which
                # belongs to the walk, not to this attempt.
                admitted = self._admits(candidate)
                hits_before = memo.skips
                # The span's attributes are worked out only for a
                # tracer that records them.
                with (
                    tracer.span(
                        "negotiation.step5.attempt",
                        offer_id=offer.offer_id,
                        servers=sorted(offer.servers_used()),
                    )
                    if tracer.enabled else NULL_SPAN
                ) as attempt_span:
                    if not admitted:
                        attempt_span.set_attribute("outcome", "breaker-skip")
                        continue
                    bundle = try_commit(
                        offer,
                        self.space,
                        self.access_point,
                        guarantee=self.guarantee,
                        holder=self.holder,
                        memo=memo,
                    )
                    if memo.skips != hits_before:
                        telemetry.count("commitment.memo_skips")
                        attempt_span.set_attribute("outcome", "memo-skip")
                        attempt_span.set_attribute(
                            "server_id", memo.refused_by
                        )
                    else:
                        attempt_span.set_attribute(
                            "outcome",
                            "committed" if bundle is not None
                            else "rolled-back",
                        )
                result = self._settle(candidate, bundle, anchor)
                if result is not None:
                    break
            if result is None:
                result = self._give_up()
            sp5.set_attribute("attempts", self.attempts)
            sp5.set_attribute("breaker_skips", self.breaker_skips)
            sp5.set_attribute("outcome", str(result.status))
            if result.chosen is not None:
                sp5.set_attribute("chosen", result.chosen.offer.offer_id)
            return result

    def run_cooperative(
        self, candidates: "Iterable[ClassifiedOffer]", park: _Park
    ) -> "Generator[_Park, None, NegotiationResult]":
        """The cooperative driver: yields ``park`` — whatever the
        caller's scheduler takes as "charge one reservation call and
        let other tasks run" — before every reservation call.  When the
        deadline passes while an attempt is parked the attempt's
        generator is closed, which rolls back what it took and closes
        the walk with ``RELEASED("abandoned")``."""
        iter_commit = self.committer.iter_commit
        for candidate in candidates:
            if self._overdue():
                break
            started = self.now()
            if not self._admits(candidate):
                self._emit_attempt(candidate, started, "breaker-skip")
                continue
            attempt = iter_commit(
                candidate.offer,
                self.space,
                self.access_point,
                guarantee=self.guarantee,
                holder=self.holder,
            )
            bundle: "ReservationBundle | None" = None
            while True:
                try:
                    next(attempt)
                except StopIteration as stop:
                    bundle = stop.value
                    break
                self.switches += 1
                yield park
                if self._overdue():
                    attempt.close()
                    break
            self._emit_attempt(
                candidate,
                started,
                "committed" if bundle is not None
                else "abandoned" if self.overrun
                else "rolled-back",
            )
            if self.overrun:
                break
            result = self._settle(candidate, bundle)
            if result is not None:
                return result
        return self._give_up()

    def _emit_attempt(
        self, candidate: ClassifiedOffer, started: float, outcome: str
    ) -> None:
        if not self.telemetry.enabled:
            return
        self.telemetry.tracer.emit(
            "negotiation.step5.attempt",
            start_s=started,
            end_s=self.now(),
            parent=self.parent,
            attributes={
                "offer_id": candidate.offer.offer_id,
                "holder": self.holder,
                "outcome": outcome,
            },
        )


class QoSManager:
    """The component implementing QoS negotiation and adaptation (§4).

    One manager serves one deployment (metadata DB + transport + server
    fleet); :meth:`negotiate` runs the procedure for one user request.
    """

    def __init__(
        self,
        *,
        database: MetadataDatabase,
        transport: TransportSystem,
        servers: Mapping[str, MediaServer],
        cost_model: CostModel | None = None,
        mapper: QoSMapper | None = None,
        clock: ManualClock | None = None,
        policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
        directory: "object | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        health: "CircuitBreaker | None" = None,
        lease_ttl_s: "float | None" = None,
        retry_seed: int = 0,
        journal: "ReservationJournal | None" = None,
        telemetry: "Telemetry | None" = None,
        cache: "NegotiationCache | None" = None,
    ) -> None:
        self.database = database
        self.cost_model = cost_model or default_cost_model()
        self.mapper = mapper or QoSMapper()
        self.clock = clock or ManualClock()
        self.policy = policy
        self.guarantee = guarantee
        self.directory = directory  # ServerDirectory, for preferences
        self.cache = cache
        self.telemetry = telemetry or Telemetry.disabled()
        self.committer = ResourceCommitter(
            transport,
            servers,
            clock=self.clock,
            retry_policy=retry_policy,
            health=health,
            lease_ttl_s=lease_ttl_s,
            retry_seed=retry_seed,
            journal=journal,
            telemetry=self.telemetry,
        )
        self._holders = itertools.count(1)

    def new_holder(self) -> str:
        """Allocate the next reservation-holder id.  Both the
        synchronous walk and the concurrent service draw from this one
        counter, so holders stay unique across interleaved
        negotiations (the journal's single-writer check depends on
        it)."""
        return f"session-{next(self._holders)}"

    # -- step 1 -----------------------------------------------------------------

    def _static_local_negotiation(
        self, document: Document, profile: UserProfile, client: ClientMachine
    ) -> "tuple[dict[Medium, tuple[str, ...]], MMProfile | None]":
        """Check client characteristics against the desired QoS; return
        (violations, best locally supportable MM profile).  The local
        offer is built only when there are violations: only
        FAILEDWITHLOCALOFFER returns it, so a supported request gets
        ``None``."""
        violations: dict[Medium, tuple[str, ...]] = {}
        desired = profile.desired
        for medium, requirement in desired.qos_points():
            bad = client.local_violations(requirement)
            if bad:
                violations[medium] = bad
        if document.sync.spatial is not None:
            width, height = document.sync.spatial.bounding_box()
            if not client.fits_layout(width, height):
                violations.setdefault(Medium.VIDEO, ("layout",))
        if not violations:
            return violations, None
        local_best: dict[str, MediaQoS] = {
            medium.value: client.local_best(requirement)
            for medium, requirement in desired.qos_points()
        }
        best_profile = MMProfile(
            cost=desired.cost, time=desired.time, **local_best
        )
        return violations, best_profile

    # -- the procedure -----------------------------------------------------------------

    def negotiate(
        self,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
        *,
        policy: ClassificationPolicy | None = None,
        guarantee: GuaranteeType | None = None,
        max_offers: "int | None" = None,
    ) -> NegotiationResult:
        """Run steps 1–5 and wrap the reservation for step 6."""
        max_offers = check_top_k(max_offers, parameter="max_offers")
        telemetry = self.telemetry
        started = self.clock.now()
        document_id = document if isinstance(document, str) else document.document_id
        with telemetry.span(
            "negotiation",
            document=document_id,
            profile=profile.name,
        ) as root:
            if isinstance(document, str):
                document = self.database.get_document(document)
            guarantee = guarantee or self.guarantee
            plan = self._plan_steps(
                document,
                profile,
                client,
                policy=policy or self.policy,
                guarantee=guarantee,
                max_offers=max_offers,
            )
            result = self.complete(plan, profile, client, guarantee=guarantee)
            root.set_attribute("status", str(result.status))
            root.set_attribute("attempts", result.attempts)
        telemetry.count("negotiation.outcomes", status=str(result.status))
        telemetry.observe(
            "negotiation.latency_s", self.clock.now() - started
        )
        telemetry.observe("negotiation.attempts", float(result.attempts))
        telemetry.observe(
            "negotiation.offers.classified", float(len(result.classified))
        )
        if telemetry.enabled:
            result.report = NegotiationReport.from_spans(
                telemetry.tracer.last_trace()
            )
        return result

    def plan(
        self,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
        *,
        policy: ClassificationPolicy | None = None,
        guarantee: GuaranteeType | None = None,
        max_offers: "int | None" = None,
    ) -> NegotiationPlan:
        """Steps 1–4 only: classify without reserving anything.

        This is the concurrent service's and the batch engine's entry
        point — planning reads the metadata database and the client's
        static characteristics but never touches the shared
        server/transport ledgers, so it needs no yield points.  The
        plan's offers are ordered lazily; pulling one emits no
        telemetry and reads no ledger, so a walk may hold them across
        scheduler switches (:meth:`ResourceCommitter.iter_commit` per
        candidate).
        """
        max_offers = check_top_k(max_offers, parameter="max_offers")
        if isinstance(document, str):
            document = self.database.get_document(document)
        return self._plan_steps(
            document, profile, client,
            policy=policy or self.policy,
            guarantee=guarantee or self.guarantee,
            max_offers=max_offers,
        )

    def complete(
        self,
        plan: NegotiationPlan,
        profile: UserProfile,
        client: ClientMachine,
        *,
        guarantee: GuaranteeType | None = None,
    ) -> NegotiationResult:
        """Step 5 from a prebuilt plan: the synchronous commitment walk.

        The counterpart of :meth:`plan` for callers that plan once and
        walk many times (the batch engine fans one class plan out to
        every member).  ``negotiate`` is exactly ``plan`` + ``complete``
        modulo telemetry wrapping, and the walk order here matches the
        sequential procedure offer for offer.
        """
        if plan.early is not None:
            return plan.early
        return self._commit(
            plan, profile, client, guarantee or self.guarantee
        )

    def _plan_steps(
        self,
        document: Document,
        profile: UserProfile,
        client: ClientMachine,
        *,
        policy: ClassificationPolicy,
        guarantee: GuaranteeType,
        max_offers: "int | None",
    ) -> NegotiationPlan:
        importance = self._importance_of(profile)
        telemetry = self.telemetry

        # Step 1: static local negotiation.
        with telemetry.span("negotiation.step1.local") as sp1:
            violations, local_best = self._static_local_negotiation(
                document, profile, client
            )
            sp1.set_attribute("violations", len(violations))
            if violations:
                sp1.set_attribute(
                    "violated_media",
                    sorted(medium.value for medium in violations),
                )
        if violations:
            return NegotiationPlan(early=NegotiationResult(
                status=NegotiationStatus.FAILED_WITH_LOCAL_OFFER,
                user_offer=local_best,
                local_violations=violations,
            ))

        # Step 2: static compatibility checking (decoder support, plus
        # the security floor when the profile carries preferences).
        with telemetry.span("negotiation.step2.filter") as sp2:
            preferences = self._preferences_of(profile)
            variant_filter = None
            if preferences is not None and self.directory is not None:
                variant_filter = preferences.variant_filter(self.directory)

            def build() -> OfferSpace:
                return build_offer_space(
                    document,
                    client,
                    self.cost_model,
                    mapper=self.mapper,
                    guarantee=guarantee,
                    variant_filter=variant_filter,
                )

            # A variant filter makes the space caller-specific, so only
            # filter-free requests go through the cache.
            if self.cache is not None and variant_filter is None:
                space_key = self.cache.space_key(
                    document_id=document.document_id,
                    version=self.database.version_of(document.document_id),
                    client=client,
                    guarantee=guarantee,
                    cost_model=self.cost_model,
                    mapper=self.mapper,
                )
                space = self.cache.offer_space(space_key, build)
                sp2.set_attribute("cached", True)
            else:
                space = build()
            kept, dropped = space.kept_variants, space.dropped_variants
            sp2.set_attribute("offers_in", kept + dropped)
            sp2.set_attribute("offers_out", kept)
            sp2.set_attribute("dropped", dropped)
            if dropped:
                sp2.set_attribute("drop_reasons", space.drop_reasons)
            sp2.set_attribute("offer_count", space.offer_count)
            telemetry.count(
                "negotiation.offers.enumerated", float(kept + dropped)
            )
            if dropped:
                telemetry.count(
                    "negotiation.offers.dropped", float(dropped), step="2"
                )
        if space.is_empty:
            return NegotiationPlan(early=NegotiationResult(
                status=NegotiationStatus.FAILED_WITHOUT_OFFER,
                offer_space=space,
            ), space=space)

        # Steps 3–4: a cursor over the space's memoised order for this
        # request's score columns (server weights are a per-variant
        # score term, see classification._axis_columns).
        total = space.offer_count
        out = total if max_offers is None else min(total, max_offers)
        with telemetry.span("negotiation.step3.parameters") as sp3:
            offers: "Iterator[ClassifiedOffer]" = stream_classified(
                space, profile, importance, policy=policy
            )
            sp3.set_attribute("offers_in", total)
            sp3.set_attribute("offers_out", out)
            sp3.set_attribute("dropped", total - out)
            if total - out:
                sp3.set_attribute("drop_reasons", {"top-k cut": total - out})
                telemetry.count(
                    "negotiation.offers.dropped", float(total - out), step="3"
                )
        with telemetry.span(
            "negotiation.step4.classify", policy=policy.value
        ) as sp4:
            # The cut comes last, so it keeps the head of the order the
            # walk will see.
            if max_offers is not None:
                offers = itertools.islice(offers, max_offers)
            sp4.set_attribute("offers_in", out)
            sp4.set_attribute("offers_out", out)
        return NegotiationPlan(
            space=space, offers=offers, offers_in=out, policy=policy
        )

    def _commit(
        self,
        plan: NegotiationPlan,
        profile: UserProfile,
        client: ClientMachine,
        guarantee: GuaranteeType,
        *,
        exclude_offer_ids: frozenset[str] = frozenset(),
    ) -> NegotiationResult:
        """Step 5: one synchronous :class:`Walk` over the plan's offers
        in :func:`walk_order`.  The result keeps what the walk pulled
        as ``classified`` and the unpulled continuation as ``_rest``;
        an excluded offer is pulled but never a candidate."""
        offers, space = plan.offers, plan.space
        assert offers is not None and space is not None
        pulled: list[ClassifiedOffer] = []
        candidates = walk_order(offers, plan.policy, pulled)
        if exclude_offer_ids:
            candidates = (
                c for c in candidates
                if c.offer.offer_id not in exclude_offer_ids
            )
        return Walk(
            self, space, profile, client,
            pulled=pulled, rest=offers, guarantee=guarantee,
        ).run(candidates, offers_in=plan.offers_in)

    def retry_after_hint(self) -> float:
        """When is retrying the whole negotiation first worthwhile?  The
        earliest quarantine expiry if a breaker is open, else a default
        heuristic."""
        health = self.committer.health
        if health is not None:
            reopen = health.earliest_reopen(self.clock.now())
            if reopen is not None:
                return max(reopen - self.clock.now(), 0.0)
        return DEFAULT_RETRY_AFTER_S

    # -- renegotiation (§8) ------------------------------------------------------------

    def renegotiate(
        self,
        previous: NegotiationResult,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
        **kwargs: Any,
    ) -> NegotiationResult:
        """The GUI's renegotiation path: "modify the offer and then push
        OK to initiate a renegotiation" (§8).

        Any resources still held by ``previous`` are released first
        (rejecting the pending offer), then the procedure runs afresh
        with the edited profile.

        ``reject`` already treats the expired/rejected/released states
        as a no-op, so nothing is caught here: a journal-append fault
        or a reject on a confirmed commitment is a real error and must
        propagate instead of masquerading as "already expired".
        """
        if previous.commitment is not None:
            previous.commitment.reject(self.clock.now())
        return self.negotiate(document, profile, client, **kwargs)

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _preferences_of(profile: UserProfile) -> "UserPreferences | None":
        preferences = profile.preferences
        if preferences is None:
            return None
        from .preferences import UserPreferences

        if not isinstance(preferences, UserPreferences):
            raise NegotiationError(
                f"profile {profile.name!r} carries invalid preferences "
                f"({type(preferences).__name__})"
            )
        return preferences

    @staticmethod
    def _importance_of(profile: UserProfile) -> ImportanceProfile:
        importance = profile.importance
        if importance is None:
            return _DEFAULT_IMPORTANCE
        if not isinstance(importance, ImportanceProfile):
            raise NegotiationError(
                f"profile {profile.name!r} carries an invalid importance "
                f"profile ({type(importance).__name__})"
            )
        return importance
