"""Resource commitment (paper §4 steps 5–6).

Step 5 asks "the transport system and the media file servers to reserve
resources to support the QoS associated with the system offer" — for
every monomedia of the offer: a server stream admission plus an
end-to-end network flow from the hosting server's attachment point to
the client's.  Commitment is all-or-nothing with rollback, so a
half-reserved offer never lingers.

Step 6 wraps the held resources in a :class:`Commitment` with a
confirmation deadline (``choicePeriod``, §8): the user must confirm
within the period or the reservation is released and the session
aborted.

The committer is failure-aware (see :mod:`repro.faults`): transient
admission faults are retried under a :class:`~repro.faults.RetryPolicy`,
attempt outcomes feed a per-server :class:`~repro.faults.CircuitBreaker`
so the commitment walk can quarantine flapping machines, and committed
bundles carry leases so a lost release can never leak capacity forever.
All three mechanisms are optional and off by default — the seed
behaviour is unchanged until a deployment opts in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, TypeVar

from ..cmfs.server import MediaServer, StreamReservation
from ..faults.health import CircuitBreaker
from ..faults.injector import FaultInjector
from ..faults.lease import LeaseManager
from ..faults.retry import (
    RETRYABLE_ERRORS,
    RetryPolicy,
    execute_with_retry,
    is_retryable,
)
from ..journal import JournalRecord, JournalRecordType, ReservationJournal
from ..network.qosparams import FlowSpec
from ..network.transport import (
    FlowReservation,
    GuaranteeType,
    TransportSystem,
)
from ..telemetry import Telemetry
from ..util.clock import ManualClock
from ..util.errors import (
    AdmissionError,
    CapacityError,
    ConfirmationTimeout,
    FaultTimeoutError,
    ManagerCrashError,
    ReproError,
    ReservationError,
    ServerCrashedError,
    TransientFaultError,
)
from ..util.rng import make_rng
from ..util.validation import check_non_negative, check_positive
from .enumeration import OfferSpace
from .offers import SystemOffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.engine import EventLoop

T = TypeVar("T")

__all__ = [
    "ReservationBundle",
    "CommitStats",
    "RefusalMemo",
    "ResourceCommitter",
    "CommitmentState",
    "Commitment",
    "EXPIRY_MARGIN_S",
]

# Everything that legitimately ends one offer's commitment attempt and
# moves the step-5 walk to the next offer.  Transient faults appear here
# because they surface only after the retry budget is exhausted.
COMMIT_FAILURES = (
    AdmissionError,
    ServerCrashedError,
    CapacityError,
    ReservationError,
    TransientFaultError,
    FaultTimeoutError,
)


@dataclass(frozen=True, slots=True)
class ReservationBundle:
    """Everything held for one committed system offer."""

    offer_id: str
    streams: tuple[StreamReservation, ...]
    flows: tuple[FlowReservation, ...]
    holder: str


@dataclass(slots=True)
class CommitStats:
    """Counters over a committer's lifetime (chaos reporting)."""

    attempts: int = 0          # individual admit/reserve calls
    retries: int = 0           # backoff retries performed
    breaker_skips: int = 0     # offers skipped because a server was quarantined
    leases_reaped: int = 0     # expired/zombie leases collected


@dataclass(slots=True)
class RefusalMemo:
    """The admission refusals one synchronous step-5 walk has seen.

    A nogood is ``(server_id, variant ids the attempt already held on
    that server, refused variant id)``.  The synchronous walk is atomic
    and every failed attempt rolls back all it took, so each attempt
    starts from the same ledgers; a server's answer is a function of
    those plus what the attempt itself holds there, and a later offer
    that reaches a recorded call would be refused there again (one that
    does not reach it failed earlier).  The routine that owns the walk
    creates one and hands it to every
    :meth:`ResourceCommitter.try_commit` of that walk; it must not
    outlive the walk.  Whether the walk may learn at all is the
    committer's decision, kept in ``learns`` (see
    ``ResourceCommitter._skips_unseen``): the breaker is read at the
    walk's first attempt, the fault hooks and crashed servers at its
    first refusal.  It learns only where a skipped attempt differs from
    a made one in nothing but the ledgers that attempt would have rolled
    back.
    """

    nogoods: "set[tuple[str, tuple[str, ...], str]]" = field(
        default_factory=set
    )
    learns: "bool | None" = None     # None before the first attempt
    skips: int = 0                   # offers refused from memory
    refused_by: "str | None" = None  # the server behind the latest skip

    def learn(
        self,
        server_id: str,
        held: "list[StreamReservation]",
        variant_id: str,
    ) -> None:
        """``server_id`` refused ``variant_id`` to an attempt holding
        ``held`` (anywhere; only its own streams matter to it)."""
        self.nogoods.add((
            server_id,
            tuple(s.variant_id for s in held if s.server_id == server_id),
            variant_id,
        ))

    def refuses(self, offer: SystemOffer) -> bool:
        """Would ``offer``, reserved in its own order, repeat a refused
        call?  Counts the skip and remembers who had refused."""
        nogoods = self.nogoods
        held: "dict[str, tuple[str, ...]]" = {}
        for variant in offer.variants.values():
            server_id = variant.server_id
            prefix = held.get(server_id, ())
            if (server_id, prefix, variant.variant_id) in nogoods:
                self.skips += 1
                self.refused_by = server_id
                return True
            held[server_id] = prefix + (variant.variant_id,)
        return False


class ResourceCommitter:
    """Step-5 executor against the transport system and server fleet.

    ``retry_policy``, ``health`` and ``lease_ttl_s`` are optional
    resilience layers: with all three left at ``None`` the committer
    behaves exactly like the fault-oblivious original.
    """

    def __init__(
        self,
        transport: TransportSystem,
        servers: Mapping[str, MediaServer],
        *,
        clock: "ManualClock | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        health: "CircuitBreaker | None" = None,
        lease_ttl_s: "float | None" = None,
        retry_seed: int = 0,
        journal: "ReservationJournal | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._transport = transport
        self._servers = dict(servers)
        self._clock = clock or ManualClock()
        self.retry_policy = retry_policy
        self.health = health
        self.leases = (
            LeaseManager(ttl_s=lease_ttl_s) if lease_ttl_s is not None else None
        )
        self.journal = journal
        self.telemetry = telemetry or Telemetry.disabled()
        self.stats = CommitStats()
        self._retry_rng = make_rng(retry_seed)

    @property
    def servers(self) -> Mapping[str, MediaServer]:
        return dict(self._servers)

    @property
    def transport(self) -> TransportSystem:
        return self._transport

    @property
    def clock(self) -> ManualClock:
        return self._clock

    def server(self, server_id: str) -> MediaServer:
        try:
            return self._servers[server_id]
        except KeyError:
            raise ReservationError(f"unknown server {server_id!r}") from None

    def journal_event(
        self,
        record_type: JournalRecordType,
        holder: str,
        payload: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Append one write-ahead record (no-op without a journal).

        Append-before-apply: call this *before* the state change it
        describes, so a crash between the two leaves the journal ahead
        of the ledgers and recovery can redo the transition.
        """
        if self.journal is not None:
            self.journal.append(
                record_type, holder, payload, timestamp=self._clock.now()
            )

    # -- the two step-5 calls ------------------------------------------------------

    def _admit(
        self,
        server: MediaServer,
        variant_id: str,
        rate_bps: float,
        holder: str,
    ) -> StreamReservation:
        """Ask ``server`` to admit one stream: the attempt is counted,
        the call made directly and its outcome fed to the breaker.

        A refusal is recorded here and re-raised; only a retryable one
        under a retry policy goes on to :meth:`_retried`.
        """
        server_id = server.server_id
        self.stats.attempts += 1
        # The registry's own method: one call per count, where the hub's
        # ``count`` property would add a second.
        self.telemetry.metrics.count("admission.attempts", target=server_id)
        try:
            stream = server.admit(variant_id, rate_bps, holder=holder)
        except ReproError as error:
            # Narrow by design (REP003): every fault the injector or the
            # substrate raises is a ReproError; anything else is a bug
            # that must surface unrecorded.
            policy = self.retry_policy
            retryable = isinstance(error, RETRYABLE_ERRORS)
            if not retryable or policy is None:
                self.telemetry.metrics.count(
                    "admission.refusals", target=server_id
                )
                if retryable and self.health is not None:
                    self.health.record_failure(server_id, self._clock.now())
                raise
            stream = self._retried(
                lambda: server.admit(variant_id, rate_bps, holder=holder),
                policy, server_id, error,
            )
        if self.health is not None:
            self.health.record_success(server_id, self._clock.now())
        return stream

    def _reserve(
        self,
        source: str,
        target: str,
        spec: FlowSpec,
        guarantee: GuaranteeType,
        holder: str,
    ) -> FlowReservation:
        """Ask the transport system for one flow: the attempt is counted
        and the call made directly.  A refusal is recorded and re-raised:
        the network raises nothing retryable, and no breaker watches it."""
        self.stats.attempts += 1
        self.telemetry.metrics.count("admission.attempts", target="network")
        try:
            return self._transport.reserve(
                source, target, spec, guarantee=guarantee, holder=holder
            )
        except ReproError:
            self.telemetry.metrics.count("admission.refusals", target="network")
            raise

    def _retried(
        self,
        call: "Callable[[], T]",
        policy: RetryPolicy,
        server_id: str,
        failed: Exception,
    ) -> T:
        """The error path of a call to ``server_id`` whose first try
        failed retryably under ``policy``: the policy's loop, from its
        decision on ``failed``, with every retry counted and fed to the
        breaker.  A final refusal is recorded here and re-raised; a
        success is left to the caller."""
        count = self.telemetry.count
        try:
            return execute_with_retry(
                call,
                policy,
                rng=self._retry_rng,
                on_retry=self._on_retry(count, server_id),
                failed=failed,
            )
        except ReproError as error:
            count("admission.refusals", target=server_id)
            if self.health is not None and is_retryable(error):
                self.health.record_failure(server_id, self._clock.now())
            raise

    def _on_retry(
        self,
        count: "Callable[..., None]",
        server_id: str,
    ) -> "Callable[[int, BaseException, float], None]":
        """The retry policy's report of one retried call: one more
        attempt, and a failure on the server's breaker record."""

        def on_retry(attempt: int, error: BaseException, delay: float) -> None:
            self.stats.retries += 1
            self.stats.attempts += 1
            count("admission.retries", target=server_id)
            count("admission.attempts", target=server_id)
            if self.health is not None:
                self.health.record_failure(server_id, self._clock.now())

        return on_retry

    # -- commitment ----------------------------------------------------------------

    def _begin_walk(self, holder: str, client_access_point: str) -> None:
        """Journal the walk's one ``INTENT``, unless an earlier attempt
        of the same walk already did."""
        journal = self.journal
        if journal is not None and not journal.has_open_intent(holder):
            self.journal_event(
                JournalRecordType.INTENT,
                holder,
                {"client": client_access_point},
            )

    def end_walk(self, holder: str, reason: str = "commit-failed") -> None:
        """Close a step-5 walk that ended without a bundle.

        Failed attempts journal nothing (each rolled back all it took),
        so the walk's ``INTENT`` is still open; one ``RELEASED`` closes
        it.  A no-op when the walk never opened one (every offer was
        breaker-skipped) or already resolved it.
        """
        journal = self.journal
        if journal is not None and journal.has_open_intent(holder):
            self.journal_event(
                JournalRecordType.RELEASED, holder, {"reason": reason}
            )

    def try_commit(
        self,
        offer: SystemOffer,
        space: OfferSpace,
        client_access_point: str,
        *,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
        holder: str = "session",
        memo: "RefusalMemo | None" = None,
    ) -> "ReservationBundle | None":
        """Attempt to reserve every resource the offer needs.

        Returns the bundle on success; on any admission or capacity
        failure everything already taken is rolled back and ``None`` is
        returned (step 5 then moves to the next offer).  Transient
        faults are retried per the policy before counting as failure.

        The walk, not the attempt, is the journalled unit: the first
        attempt for ``holder`` writes ``INTENT``, a failed one writes
        nothing, and whoever owns the walk closes it — a
        :class:`Commitment` around the bundle (``RESERVED``) or
        :meth:`end_walk`.

        ``memo`` is the walk's :class:`RefusalMemo`.  An offer that
        would repeat an admission call the walk has already seen
        refused fails here, before anything is journalled or taken.
        """
        if memo is not None:
            if memo.learns is None:
                # The breaker is read before the walk's first call (see
                # _skips_unseen): a quiet one stays quiet to the end.
                health = self.health
                memo.learns = health is None or health.quiet()
            elif memo.nogoods and memo.refuses(offer):
                return None
        self._begin_walk(holder, client_access_point)
        streams: list[StreamReservation] = []
        flows: list[FlowReservation] = []
        server: "MediaServer | None" = None
        admit, reserve = self._admit, self._reserve
        try:
            for variant in offer.variants.values():
                spec = space.spec_for(variant)
                server = self.server(variant.server_id)
                streams.append(admit(
                    server, variant.variant_id,
                    guarantee.billable_rate(spec), holder,
                ))
                flows.append(reserve(
                    server.access_point, client_access_point, spec,
                    guarantee, holder,
                ))
        except COMMIT_FAILURES as error:
            # Whatever happens in the bookkeeping, everything already
            # admitted is released before control leaves.
            try:
                self.telemetry.count("commitment.rollbacks")
                self.telemetry.annotate(refusal=type(error).__name__)
                if (
                    memo is not None
                    and memo.learns
                    and type(error) is AdmissionError
                    and server is not None
                ):
                    # Only MediaServer.admit raises AdmissionError; the
                    # walk learns it only where skipping the calls that
                    # lead up to it cannot be observed.  Its first such
                    # refusal settles that for the rest of the walk, so
                    # a walk that meets none never scans the fleet.
                    if not memo.nogoods:
                        memo.learns = self._skips_unseen()
                    if memo.learns:
                        memo.learn(
                            server.server_id, streams, variant.variant_id
                        )
            finally:
                self._rollback(streams, flows)
            return None
        return self._granted(offer, streams, flows, holder)

    def _skips_unseen(self) -> bool:
        """May a synchronous walk skip the attempts its memo refuses?
        Only if a skipped attempt would differ from a made one in
        nothing but the ledgers it rolls back (and the ids, sequence
        numbers, per-call counters and span outcome they use):

        * the walk is atomic — the clock does not move and no loop event
          runs during it — so brownouts, link flaps, degradation and
          crashed state are fixed until it ends, and this answer holds
          for all of it;
        * every installed fault hook is a :class:`FaultInjector` whose
          plan has no per-call spec, so ``before_admit``, the crash
          opportunities and the ``intercept_*`` releases draw, count
          and fire nothing (any other hook object observes calls);
        * no server is crashed, so with no per-call fault no retryable
          error can occur and nothing calls ``record_failure``;
        * the breaker, if any, was quiet when the walk began (checked
          by ``try_commit`` before the first call), so ``record_success``
          changes no record and notifies no one — and it stays quiet,
          since nothing can fail it.  ``Walk._admits`` asks it about
          every server of an offer before the attempt, made or
          skipped, so a skip leaves out no record either.

        With no hook and no breaker the first check decides it: only an
        installed injector crashes a server.
        """
        servers = self._servers.values()
        hooks = [server.fault_hook for server in servers]
        hooks.append(self._transport.fault_hook)
        if self.health is None and hooks.count(None) == len(hooks):
            return True
        return all(
            hook is None
            or (isinstance(hook, FaultInjector) and not hook.observes_calls)
            for hook in hooks
        ) and not any(server.is_crashed for server in servers)

    def iter_commit(
        self,
        offer: SystemOffer,
        space: OfferSpace,
        client_access_point: str,
        *,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
        holder: str = "session",
    ) -> "Generator[None, None, ReservationBundle | None]":
        """Cooperative :meth:`try_commit`: the same all-or-nothing
        contract and the same one-``INTENT``-per-walk journalling,
        exposed as a generator that yields control before every
        reservation call so thousands of step-5 walks can interleave on
        one scheduler.

        Two deltas against the synchronous path, both contention
        armour:

        * **ordered acquisition** — variants are reserved in sorted
          ``(server_id, monomedia_id)`` order, so two walks needing the
          same pair of servers always approach them in the same order
          and can never hold-and-wait against each other;
        * **abandonment** — closing the generator at a yield point (the
          service does this when a negotiation's deadline budget runs
          out) rolls back everything taken so far and closes the walk
          with ``RELEASED("abandoned")``.

        There is no refusal memo here: other tasks move the ledgers
        between yields, so a refusal seen by one attempt says nothing
        about the next.

        Between the final reservation and the generator's return there
        is no yield, so the caller can wrap the bundle in a
        :class:`Commitment` (journaling RESERVED) before another task
        runs.
        """
        self._begin_walk(holder, client_access_point)
        streams: list[StreamReservation] = []
        flows: list[FlowReservation] = []
        ordered = sorted(
            offer.variants.items(),
            key=lambda item: (item[1].server_id, item[0]),
        )
        admit, reserve = self._admit, self._reserve
        try:
            for _monomedia_id, variant in ordered:
                spec = space.spec_for(variant)
                server = self.server(variant.server_id)
                yield
                streams.append(admit(
                    server, variant.variant_id,
                    guarantee.billable_rate(spec), holder,
                ))
                yield
                flows.append(reserve(
                    server.access_point, client_access_point, spec,
                    guarantee, holder,
                ))
        except COMMIT_FAILURES as error:
            try:
                self.telemetry.count("commitment.rollbacks")
                self.telemetry.annotate(refusal=type(error).__name__)
            finally:
                self._rollback(streams, flows)
            return None
        except GeneratorExit:
            # Abandoned at a yield point (deadline budget exhausted):
            # the refusal's rollback discipline, the walk's closing
            # record, then let close finish.
            try:
                self.telemetry.count("commitment.rollbacks")
                self.end_walk(holder, "abandoned")
            finally:
                self._rollback(streams, flows)
            raise
        return self._granted(offer, streams, flows, holder)

    def _granted(
        self,
        offer: SystemOffer,
        streams: "list[StreamReservation]",
        flows: "list[FlowReservation]",
        holder: str,
    ) -> ReservationBundle:
        """The bundle of an attempt that took everything, its lease
        granted when the committer keeps leases."""
        return self._leased(
            ReservationBundle(
                offer_id=offer.offer_id,
                streams=tuple(streams),
                flows=tuple(flows),
                holder=holder,
            )
        )

    def _leased(self, bundle: ReservationBundle) -> ReservationBundle:
        if self.leases is not None:
            self.leases.grant(bundle.holder, bundle, self._clock.now())
        return bundle

    def release(self, bundle: ReservationBundle) -> None:
        self._rollback(list(bundle.streams), list(bundle.flows))
        if self.leases is not None:
            if self.still_held(bundle):
                # A release was swallowed (lost-release fault): keep the
                # lease as a zombie so the reaper retries later.
                self.leases.mark_zombie(bundle.holder)
            else:
                self.leases.drop(bundle.holder)

    def _rollback(
        self,
        streams: "list[StreamReservation]",
        flows: "list[FlowReservation]",
    ) -> None:
        """Best-effort release of everything listed.

        Never raises: double releases, unknown servers (a stream from a
        server since removed from the fleet) and crashed machines must
        not abort the loop and leak the remaining reservations.
        """
        for flow in flows:
            try:
                self._transport.release(flow)
            except ReservationError:
                pass  # already gone (e.g. double release during teardown)
        for stream in streams:
            server = self._servers.get(stream.server_id)
            if server is None:
                continue  # unknown server id: nothing to release here
            try:
                server.release(stream)
            except ReservationError:
                pass

    # -- leases --------------------------------------------------------------------

    def renew_lease(self, holder: str, now: "float | None" = None) -> bool:
        """Refresh a live session's lease; no-op without lease support."""
        if self.leases is None:
            return False
        return self.leases.renew_if_held(
            holder, self._clock.now() if now is None else now
        )

    def held(self, bundle: ReservationBundle) -> "tuple[int, int]":
        """How many of the bundle's streams and flows still exist."""
        servers = self._servers
        return (
            sum(
                1 for s in bundle.streams
                if s.server_id in servers
                and servers[s.server_id].has_stream(s.stream_id)
            ),
            sum(1 for f in bundle.flows if self._transport.has_flow(f.flow_id)),
        )

    def still_held(self, bundle: ReservationBundle) -> bool:
        """Does any of the bundle's streams or flows still exist?  After
        a release, yes means a release was swallowed; for a live
        session, no means its reservation vanished underneath it."""
        return self.held(bundle) != (0, 0)

    def reap_expired(self, now: "float | None" = None) -> int:
        """Release the bundles of expired or zombie leases.

        This is the backstop that makes a lost release survivable: the
        leaked reservation is recovered as soon as its lease runs out
        (or, for zombies, on the next sweep after the fault clears).
        Returns the number of leases collected.
        """
        if self.leases is None:
            return 0
        now = self._clock.now() if now is None else now
        reaped = 0
        started = now
        for lease in self.leases.due(now):
            self.journal_event(
                JournalRecordType.RELEASED,
                lease.bundle.holder,
                {"offer_id": lease.bundle.offer_id,
                 "reason": "lease-reaped"},
            )
            self._rollback(list(lease.bundle.streams), list(lease.bundle.flows))
            if not self.still_held(lease.bundle):
                self.leases.collect(lease)
                reaped += 1
        self.stats.leases_reaped += reaped
        if reaped:
            self.telemetry.count("leases.reaped", float(reaped))
            self.telemetry.tracer.emit(
                "lease.reap",
                start_s=started,
                end_s=self._clock.now(),
                attributes={"reaped": reaped},
            )
        return reaped

    # -- restart -------------------------------------------------------------------

    def rebuild(
        self, holder: str, reserved: "Mapping[str, Any] | None" = None
    ) -> ReservationBundle:
        """Everything the ledgers hold under ``holder``: first what its
        ``RESERVED`` payload ``reserved`` names, in that order, then the
        rest (what a walk that died before ``RESERVED`` had taken, or a
        rollback a fault hook swallowed).  Resources already gone are
        left out, so releasing the bundle asks the ledgers about
        nothing they lack."""
        streams = {
            (s.server_id, s.stream_id): s
            for server in self._servers.values()
            for s in server.streams_for_holder(holder)
        }
        flows = {f.flow_id: f for f in self._transport.flows_for_holder(holder)}
        payload = reserved or {}
        named_streams = [
            streams.pop((str(e["server_id"]), str(e["stream_id"])), None)
            for e in payload.get("streams", ())
        ]
        named_flows = [
            flows.pop(str(e["flow_id"]), None) for e in payload.get("flows", ())
        ]
        return ReservationBundle(
            offer_id=str(payload.get("offer_id", "")),
            streams=tuple(
                s for s in [*named_streams, *streams.values()] if s is not None
            ),
            flows=tuple(
                f for f in [*named_flows, *flows.values()] if f is not None
            ),
            holder=holder,
        )

    def resume(self, reserved: JournalRecord) -> "Commitment":
        """Step 6 after a manager restart: the :class:`Commitment` that
        ``reserved`` (a ``RESERVED`` record) opened, around what the
        ledgers still hold of it, leased from now when the committer
        keeps leases, so a release swallowed at its expiry is reaped.
        It journals no second ``RESERVED``, and its later records carry
        ``"recovered": true``."""
        payload = reserved.payload
        return Commitment(
            self._leased(self.rebuild(reserved.holder, payload)),
            self,
            reserved_at=float(payload.get("reserved_at", reserved.timestamp)),
            choice_period_s=float(payload["choice_period_s"]),
            telemetry=self.telemetry,
            recovered=True,
        )


EXPIRY_MARGIN_S = 1e-3
"""How long after the choicePeriod deadline the watchdog fires.  Expiry
is strict (``now > deadline``), so the watchdog must land past the
deadline tick; one millisecond keeps the wake deterministic while
leaving a confirm *on* the tick its honest last chance."""


class CommitmentState(enum.Enum):
    PENDING = "pending"      # waiting for user confirmation
    CONFIRMED = "confirmed"  # playout may start
    REJECTED = "rejected"    # user declined; resources released
    EXPIRED = "expired"      # choicePeriod ran out; resources released
    RELEASED = "released"    # torn down after playout / adaptation


class Commitment:
    """Step 6: reserved resources awaiting user confirmation.

    "The user must confirm the user offer (rejection or acceptance)
    within a limited amount of time since the resources are reserved."

    Teardown is idempotent: the ``choicePeriod`` timer firing
    concurrently with an explicit user release or rejection must never
    raise nor double-release — the bundle is returned exactly once, and
    every later teardown call is a no-op.

    A ``recovered`` commitment is one :meth:`ResourceCommitter.resume`
    rebuilt from its ``RESERVED`` record after a manager restart: it
    journals no ``RESERVED`` of its own and marks every record it
    writes ``"recovered": true``.
    """

    # Born pending: a live commitment journals its RESERVED record in
    # __init__, a recovered one was rebuilt from that record.
    state: CommitmentState = CommitmentState.PENDING

    def __init__(
        self,
        bundle: ReservationBundle,
        committer: ResourceCommitter,
        *,
        reserved_at: float,
        choice_period_s: float,
        telemetry: "Telemetry | None" = None,
        trace_context: "tuple[str, str] | None" = None,
        recovered: bool = False,
    ) -> None:
        self.bundle = bundle
        self.recovered = recovered
        self._committer = committer
        self._telemetry = telemetry or Telemetry.disabled()
        self._trace_context = trace_context
        # A zero/negative/NaN choicePeriod would expire every commitment
        # the instant it is created — reject it loudly instead.
        self.reserved_at = check_non_negative(
            float(reserved_at), "reserved_at"
        )
        self.choice_period_s = check_positive(
            float(choice_period_s), "choice_period_s"
        )
        self._bundle_released = False
        if recovered:
            return  # its RESERVED is the record it was rebuilt from
        # The payload is built only for a journal that will write it;
        # the transition itself is journalled (a no-op without one) on
        # every path, ahead of the state it records.
        self._journal_transition(
            JournalRecordType.RESERVED,
            None if committer.journal is None else {
                "offer_id": bundle.offer_id,
                "reserved_at": self.reserved_at,
                "choice_period_s": self.choice_period_s,
                "streams": [
                    {
                        "server_id": s.server_id,
                        "stream_id": s.stream_id,
                        "rate_bps": s.rate_bps,
                    }
                    for s in bundle.streams
                ],
                "flows": [
                    {"flow_id": f.flow_id, "reserved_bps": f.reserved_bps}
                    for f in bundle.flows
                ],
            },
        )

    @property
    def deadline(self) -> float:
        return self.reserved_at + self.choice_period_s

    def watch(self, loop: "EventLoop") -> None:
        """Arm the ``choicePeriod`` watchdog: :meth:`expire_check` at
        ``deadline + EXPIRY_MARGIN_S``."""
        clock = self._committer.clock
        loop.at(
            self.deadline + EXPIRY_MARGIN_S,
            lambda: self.expire_check(clock.now()),
        )

    def _payload(self, **fields: Any) -> "dict[str, Any]":
        """A transition's payload: the offer id, ``fields`` and, on a
        recovered commitment, the ``recovered`` marker."""
        payload: "dict[str, Any]" = {"offer_id": self.bundle.offer_id, **fields}
        if self.recovered:
            payload["recovered"] = True
        return payload

    def _journal_transition(
        self,
        record_type: JournalRecordType,
        payload: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Write-ahead record for one lifecycle transition.  Callers
        guard with the state machine, so each transition is journaled
        exactly once no matter how teardown paths interleave."""
        self._committer.journal_event(
            record_type, self.bundle.holder, payload
        )

    def _journal_and_flip(
        self,
        record_type: JournalRecordType,
        payload: "Mapping[str, Any] | None",
        new_state: "CommitmentState",
    ) -> None:
        """Journal + apply one lifecycle transition as a unit.

        An injected manager crash fires *after* the record is durable
        (the journal's crash hook runs post-append), so on
        :class:`ManagerCrashError` the transition exists on disk but not
        yet in memory.  Flip the state before re-raising — and for
        terminal states hand the bundle over to recovery — otherwise a
        post-recovery teardown (or the re-armed choicePeriod timer
        racing a renegotiation) would journal the same terminal
        transition a second time and double-release the reservation.
        Any *other* append failure means the record is not durable; the
        state is left untouched so the caller may legitimately retry.
        """
        terminal = new_state in (
            CommitmentState.REJECTED,
            CommitmentState.EXPIRED,
            CommitmentState.RELEASED,
        )
        try:
            self._journal_transition(record_type, payload)
        except ManagerCrashError:
            self.state = new_state
            if terminal:
                # The durable record makes journal replay redo the
                # release against the ledgers: the bundle is recovery's.
                self._bundle_released = True
            raise
        self.state = new_state

    def _release_bundle(self) -> None:
        """Return the held resources exactly once."""
        if self._bundle_released:
            return
        self._bundle_released = True
        self._committer.release(self.bundle)

    def _emit_step6(self, outcome: str, now: float) -> None:
        """Record the confirmation-wait outcome: one counter plus a
        ``negotiation.step6.confirm`` span covering reserved->decision,
        parented at the originating negotiation's root when known."""
        telemetry = self._telemetry
        telemetry.count("commitment.outcomes", state=outcome)
        if not telemetry.enabled:
            return
        telemetry.tracer.emit(
            "negotiation.step6.confirm",
            start_s=self.reserved_at,
            end_s=now,
            parent=self._trace_context,
            attributes={
                "outcome": outcome,
                "wait_s": now - self.reserved_at,
                "holder": self.bundle.holder,
            },
        )

    def _expire_if_due(self, now: float) -> None:
        if self.state is CommitmentState.PENDING and now > self.deadline:
            self._journal_and_flip(
                JournalRecordType.EXPIRED,
                self._payload(),
                CommitmentState.EXPIRED,
            )
            self._emit_step6("expired", now)
            self._release_bundle()

    def confirm(self, now: float) -> None:
        """User pressed OK.  Raises :class:`ConfirmationTimeout` if the
        choice period already elapsed (the §8 timer fired: "the session
        is simply aborted and a new negotiation is required")."""
        self._expire_if_due(now)
        if self.state is CommitmentState.EXPIRED:
            raise ConfirmationTimeout(
                f"confirmation at t={now:g}s after deadline "
                f"t={self.deadline:g}s; reservation released"
            )
        if self.state is not CommitmentState.PENDING:
            raise ReservationError(
                f"cannot confirm a commitment in state {self.state.value}"
            )
        self._journal_and_flip(
            JournalRecordType.CONFIRMED,
            self._payload(),
            CommitmentState.CONFIRMED,
        )
        self._emit_step6("confirmed", now)

    def reject(self, now: float) -> None:
        """User pressed CANCEL; resources are de-allocated (§4 step 6).
        A no-op when the commitment already reached a terminal state."""
        self._expire_if_due(now)
        if self.state in (
            CommitmentState.EXPIRED,
            CommitmentState.REJECTED,
            CommitmentState.RELEASED,
        ):
            return
        if self.state is not CommitmentState.PENDING:
            raise ReservationError(
                f"cannot reject a commitment in state {self.state.value}"
            )
        self._journal_and_flip(
            JournalRecordType.RELEASED,
            self._payload(reason="rejected"),
            CommitmentState.REJECTED,
        )
        self._emit_step6("rejected", now)
        self._release_bundle()

    def expire_check(self, now: float) -> bool:
        """Poll-style timeout check; True if the commitment expired."""
        self._expire_if_due(now)
        return self.state is CommitmentState.EXPIRED

    def release(self) -> None:
        """Tear down after playout completion or adaptation switch.
        Idempotent, and safe against a concurrent ``choicePeriod``
        expiry having already returned the bundle."""
        if self.state in (
            CommitmentState.RELEASED,
            CommitmentState.REJECTED,
            CommitmentState.EXPIRED,
        ):
            return
        self._journal_and_flip(
            JournalRecordType.RELEASED,
            self._payload(reason="teardown"),
            CommitmentState.RELEASED,
        )
        self._telemetry.count("commitment.outcomes", state="released")
        self._release_bundle()
