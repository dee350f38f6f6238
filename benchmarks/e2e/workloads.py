"""The benchmark's workloads.

Every workload is a closed loop with one caller, one process and one
thread: the manager is a single-threaded in-process library.  The two
open-loop arrival processes (``service_overload``, ``storm_adapt``)
live on the simulated clock and are replayed as fast as the CPU
allows.  All inputs are generated from the seed before a measured
window opens; the program under test receives only generated inputs.

A workload runs in *rounds*.  A round is a fixed amount of work with
its own measured window; the harness runs rounds until the requested
seconds are spent and reports medians over them.  Except on
``plan_unshared`` (whose point is that no profile repeats) every round
of one seed replays identical inputs on a fresh deployment, so the
sha256 of a round's ordered ``(status, offer id, attempts)``
signatures must repeat exactly — the harness checks that.

Each verdict passes the correctness gate (:func:`verdict_breach`);
each round ends with a teardown audit (zero streams, flows and
reserved bandwidth; journal reconciles balanced).
"""

from __future__ import annotations

import gc
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.batch import BatchRequest, negotiate_batch
from repro.core.classification import classify_space
from repro.core.negotiation import NegotiationResult
from repro.core.profile_manager import ProfileManager
from repro.core.status import NegotiationStatus
from repro.documents.media import ColorMode
from repro.journal import RecoveryManager, ReservationJournal
from repro.perf.cache import reset_shared_cache
from repro.service import NegotiationService
from repro.sim.load import ArrivalSpec, LoadSpec
from repro.sim.scenario import build_scenario
from repro.sim.storm import StormSpec, run_storm
from repro.storm import AdmissionGate
from repro.telemetry import FlightRecorder, reconcile_journal

import deploy
from trace import NullTrace, Target

__all__ = ["Round", "WORKLOAD_CLASSES", "verdict_breach", "OUT_DIR"]

OUT_DIR = Path(__file__).resolve().parent / "out"
SUCCEEDED = NegotiationStatus.SUCCEEDED
FAILED_WITH_OFFER = NegotiationStatus.FAILED_WITH_OFFER
FAILED_TRY_LATER = NegotiationStatus.FAILED_TRY_LATER
UNTRACED = NullTrace()


@dataclass
class Round:
    """What one measured round did."""

    elapsed_s: float
    operations: int
    latencies_s: "list[float]" = field(default_factory=list)
    signatures: "list[Any]" = field(default_factory=list)
    refused: int = 0            # FAILEDTRYLATER verdicts, shed included
    reserving: int = 0          # verdicts that reserved resources
    attempts: "int | None" = None   # step-5 walk attempts, where results carry them
    offers_classified: int = 0
    failed: int = 0             # correctness breaches
    extras: "dict[str, float]" = field(default_factory=dict)
    speed: float = 1.0          # reference-kernel speed index around the window

    @property
    def scaled_s(self) -> float:
        """The window in wall seconds at the reference speed."""
        return self.elapsed_s / self.speed


def verdict_breach(result: NegotiationResult) -> "str | None":
    """The status-taxonomy contract one verdict must meet."""
    status = result.status
    if not isinstance(status, NegotiationStatus):
        return f"status {status!r} outside the taxonomy"
    chosen = result.chosen
    if status is SUCCEEDED:
        if chosen is None or not chosen.satisfies_user:
            return "SUCCEEDED without a user-satisfying offer"
    elif status is FAILED_WITH_OFFER:
        if chosen is None or chosen.satisfies_user:
            return "FAILEDWITHOFFER with a user-satisfying offer"
    elif status is FAILED_TRY_LATER:
        hint = result.retry_after_s
        if hint is None or not hint > 0.0:
            return "FAILEDTRYLATER without a positive retry_after_s"
        if result.commitment is not None:
            return "FAILEDTRYLATER holding a commitment"
    return None


def signature(result: NegotiationResult) -> "tuple[str, str | None, int]":
    return (
        result.status.name,
        result.chosen.offer.offer_id if result.chosen else None,
        result.attempts,
    )


def tally(round_: Round, results: "list[NegotiationResult]") -> None:
    """Fold verdicts into the round: signatures, counts, the gate."""
    attempts = 0
    for result in results:
        round_.signatures.append(signature(result))
        attempts += result.attempts
        round_.offers_classified += len(result.classified)
        if result.status is FAILED_TRY_LATER:
            round_.refused += 1
        elif result.status.reserves_resources:
            round_.reserving += 1
        if verdict_breach(result) is not None:
            round_.failed += 1
    round_.attempts = attempts


def teardown_breaches(
    leaked: "tuple[int, int, float]",
    journal: "ReservationJournal | None",
) -> int:
    """Leaks after teardown, plus an unbalanced journal."""
    breaches = int(leaked != (0, 0, 0.0))
    if journal is not None and not reconcile_journal(journal)["balanced"]:
        breaches += 1
    return breaches


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


# -- trace targets -----------------------------------------------------------------


def negotiation_targets() -> "list[Target]":
    """The layers every workload shares, by their public callables."""
    from repro.batch import classes as batch_classes
    from repro.batch import engine as batch_engine
    from repro.cmfs.server import MediaServer
    from repro.core import negotiation
    from repro.core.commitment import Commitment, ResourceCommitter
    from repro.core.negotiation import QoSManager
    from repro.network.transport import TransportSystem
    from repro.perf.cache import NegotiationCache

    return [
        Target(QoSManager, "negotiate", "core.negotiation.negotiate"),
        Target(QoSManager, "plan", "core.negotiation.plan"),
        Target(QoSManager, "complete", "core.negotiation.complete"),
        Target(negotiation, "build_offer_space", "core.enumeration.build"),
        Target(batch_engine, "build_offer_space", "core.enumeration.build"),
        Target(negotiation, "classify_space", "core.classification.classify"),
        Target(negotiation, "classify_arrays", "core.classification.classify"),
        Target(batch_engine, "classify_arrays_batch",
               "core.classification.classify"),
        Target(negotiation, "stream_classified", "core.stream", "stream"),
        Target(NegotiationCache, "space_key", "perf.cache.key"),
        Target(NegotiationCache, "classification_key", "perf.cache.key"),
        Target(NegotiationCache, "offer_space", "perf.cache.lookup"),
        Target(NegotiationCache, "classification", "perf.cache.lookup"),
        Target(batch_classes, "request_class_key", "batch.class_key"),
        Target(batch_engine, "request_class_key", "batch.class_key"),
        Target(ResourceCommitter, "try_commit", "core.commitment.try_commit"),
        Target(ResourceCommitter, "iter_commit",
               "core.commitment.iter_commit", "steps"),
        Target(Commitment, "confirm", "core.commitment.settle"),
        Target(Commitment, "reject", "core.commitment.settle"),
        Target(Commitment, "release", "core.commitment.settle"),
        Target(Commitment, "expire_check", "core.commitment.settle"),
        Target(MediaServer, "admit", "cmfs.admit"),
        Target(MediaServer, "release", "cmfs.release"),
        Target(TransportSystem, "reserve", "network.reserve"),
        Target(TransportSystem, "release", "network.release"),
        Target(ReservationJournal, "append", "journal.append"),
    ]


def service_targets(armed: bool) -> "list[Target]":
    from repro.session.engine import EventLoop
    from repro.telemetry import Tracer
    from repro.telemetry.metrics import MetricsRegistry

    targets = negotiation_targets() + [
        Target(EventLoop, "step", "session.engine.step"),
        Target(NegotiationService, "submit", "service.submit"),
        Target(AdmissionGate, "submit_deferred", "storm.gate.submit"),
    ]
    if armed:
        # Only with a live hub: the disabled hub's calls are no-ops
        # whose wrappers would cost more than they measure.
        targets += [
            Target(Tracer, "emit", "telemetry.span"),
            Target(Tracer, "start_span", "telemetry.span"),
            Target(MetricsRegistry, "count", "telemetry.metrics"),
            Target(MetricsRegistry, "observe", "telemetry.metrics"),
            Target(MetricsRegistry, "gauge_set", "telemetry.metrics"),
            Target(FlightRecorder, "sample", "telemetry.sample"),
        ]
    return targets


def storm_targets() -> "list[Target]":
    from repro.core.adaptation import AdaptationManager
    from repro.session.engine import EventLoop
    from repro.storm import StormController

    return negotiation_targets() + [
        Target(EventLoop, "step", "session.engine.step"),
        Target(AdmissionGate, "submit", "storm.gate.submit"),
        Target(StormController, "on_violation", "storm.controller.violation"),
        Target(AdaptationManager, "adapt", "core.adaptation.adapt"),
    ]


# -- closed-loop workloads ---------------------------------------------------------


class Workload:
    """What the harness drives: ``setup`` (inputs, deployment, warm-up),
    ``round`` (one measured window), ``finish`` (checks that run outside
    every window; returns breaches) and the trace ``targets``."""

    name: str
    cycle = 1
    """Round ``i + cycle`` replays round ``i``'s inputs (0: never), so
    its outcome digest must repeat."""

    def targets(self) -> "list[Target]":
        return negotiation_targets()

    def finish(self) -> int:
        return 0


class PlanUnshared(Workload):
    """Fresh profile per request over 8 documents of 4^6 offers."""

    name = "plan_unshared"
    cycle = 0               # no profile ever repeats
    DOCUMENTS = 8
    SHAPE = (4, 6)
    REQUESTS = 600          # per round
    WARMUP = 64
    ORACLE_SAMPLES = 64
    # Ceilings are distinct integer cents: 400 $ + an affine permutation
    # of the request counter modulo a prime, so no fingerprint repeats
    # within a run (and every ceiling clears the dearest offer).
    PRIME = 999_983

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.requests = scaled(self.REQUESTS, scale, 32)
        rng = np.random.default_rng([seed, 11])
        self._mul = int(rng.integers(1, self.PRIME))
        self._add = int(rng.integers(0, self.PRIME))
        self._schedule_rng = rng
        self._issued = 0
        self._verdict_at = 0.0
        self._oracle: "list[tuple[Any, NegotiationResult]]" = []

    def _inputs(self, count: int) -> "list[tuple[str, Any]]":
        picks = self._schedule_rng.integers(0, self.DOCUMENTS, size=count)
        inputs = []
        for pick in picks:
            cents = 40_000 + (self._mul * self._issued + self._add) % self.PRIME
            self._issued += 1
            inputs.append((
                self.documents[int(pick)].document_id,
                deploy.make_profile(cents / 100.0),
            ))
        return inputs

    def setup(self) -> None:
        self.documents = [
            deploy.make_document(*self.SHAPE, index)
            for index in range(self.DOCUMENTS)
        ]
        self.deployment = deploy.make_deployment(self.documents)
        warm = [
            (document.document_id, deploy.make_profile())
            for document in self.documents
        ] + self._inputs(self.WARMUP)
        for document_id, profile in warm:
            self._one(document_id, profile)

    def _one(self, document_id: str, profile: Any) -> NegotiationResult:
        manager = self.deployment.manager
        result = manager.negotiate(
            document_id, profile, self.deployment.client
        )
        self._verdict_at = perf_counter()
        if result.commitment is not None:
            # Rejected at once: the ledgers are empty before every walk.
            result.commitment.reject(manager.clock.now())
        return result

    def round(self, index: int, trace: Any) -> Round:
        inputs = self._inputs(self.requests)
        one = trace.root(self._one)
        results = []
        latencies = []
        gc.collect()
        started = perf_counter()
        for document_id, profile in inputs:
            t0 = perf_counter()
            results.append(one(document_id, profile))
            latencies.append(self._verdict_at - t0)
        elapsed = perf_counter() - started
        round_ = Round(elapsed, len(results), latencies)
        tally(round_, results)
        round_.failed += teardown_breaches(self.deployment.leaked(), None)
        if index == 0:
            step = max(1, len(results) // self.ORACLE_SAMPLES)
            self._oracle = [
                (inputs[i][1], results[i])
                for i in range(0, len(results), step)
            ][: self.ORACLE_SAMPLES]
        return round_

    def finish(self) -> int:
        """Outside every window: the streamed head must equal the head
        of an eager ``classify_space`` over the same space."""
        manager = self.deployment.manager
        breaches = 0
        for profile, result in self._oracle:
            head = classify_space(
                result.offer_space, profile, profile.importance,
                policy=manager.policy, top_k=1,
            )[0]
            if (
                result.chosen is None
                or result.chosen.offer.offer_id != head.offer.offer_id
            ):
                breaches += 1
        return breaches


class PlanSharedZipf(Workload):
    """Zipf(1.2) over four 4^10 documents, 4 profiles, batched."""

    name = "plan_shared_zipf"
    DOCUMENTS = 4
    SHAPE = (4, 10)
    PROFILES = 4
    BATCH = 2048            # one batch per round; 16 classes / 2048 < 0.01
    MAX_OFFERS = 64
    ZIPF = 1.2
    WARMUP = 64

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.batch = scaled(self.BATCH, scale, 64)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 12])
        self.documents = [
            deploy.make_document(*self.SHAPE, index)
            for index in range(self.DOCUMENTS)
        ]
        self.deployment = deploy.make_deployment(self.documents)
        profiles = [
            deploy.make_profile(500.0 + rank, name=f"e2e-{rank}")
            for rank in range(self.PROFILES)
        ]
        picks = deploy.zipf_schedule(
            rng, self.DOCUMENTS, self.batch, self.ZIPF
        )
        users = rng.integers(0, self.PROFILES, size=self.batch)
        self.requests = [
            BatchRequest(
                document=self.documents[pick].document_id,
                profile=profiles[int(user)],
                client=self.deployment.client,
                max_offers=self.MAX_OFFERS,
            )
            for pick, user in zip(picks, users)
        ]
        self._batch(self.requests[: self.WARMUP], [])

    def _batch(
        self, requests: "list[BatchRequest]", marks: "list[float]"
    ) -> "list[NegotiationResult]":
        manager = self.deployment.manager

        def after_each(
            request: BatchRequest, result: NegotiationResult
        ) -> None:
            # Reject before the next member walks: the batch replays
            # the sequential run's exact ledger states.
            if result.commitment is not None:
                result.commitment.reject(manager.clock.now())
            marks.append(perf_counter())

        return negotiate_batch(manager, requests, after_each=after_each)

    def round(self, index: int, trace: Any) -> Round:
        marks: "list[float]" = []
        batch = trace.root(self._batch, "batch.negotiate_batch")
        gc.collect()
        started = perf_counter()
        results = batch(self.requests, marks)
        elapsed = perf_counter() - started
        round_ = Round(
            elapsed, len(results), [mark - started for mark in marks]
        )
        tally(round_, results)
        round_.failed += teardown_breaches(self.deployment.leaked(), None)
        return round_


class WalkContended(Workload):
    """Deep step-5 walks through a file journal, then its replay."""

    name = "walk_contended"
    DOCUMENTS = 3
    SHAPE = (4, 4)
    # Calibrated (see README): with these caps on the striped disk the
    # fleet holds about 42 four-stream sessions; a window of 40 keeps
    # the walk 5-15 offers deep.  A FAILEDTRYLATER verdict also ends
    # the oldest session, as passing time would, so the loop cannot
    # wedge at capacity.
    STREAM_CAPS = (26, 70, 200)
    WINDOW = 40
    SCHEDULE_SEED = [3, 13]
    PREFILL = 60            # untimed: fills the window
    REQUESTS = 300          # timed, per round
    WORST = (ColorMode.COLOR, 15)   # grey / 10 fps variants fall short
    LINK_BPS = 1e10         # links never bind; the stream caps do

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.requests = scaled(self.REQUESTS, scale, 30)
        self.path = OUT_DIR / f"journal-{os.getpid()}.jsonl"
        self._verdict_at = 0.0

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 13])
        self.documents = [
            deploy.make_document(*self.SHAPE, index)
            for index in range(self.DOCUMENTS)
        ]
        # How deep the walk goes is chaotic in the request order (a
        # random schedule swings between 5 and 30 attempts per verdict
        # across seeds), and a benchmark needs the same work from every
        # seed.  So the order is one fixed draw (permuted blocks of one
        # request per document, SCHEDULE_SEED) and the run's seed picks
        # only the cost ceiling: a new profile fingerprint.
        self.profile = deploy.make_profile(
            500.0 + int(rng.integers(0, 10_000)) / 100.0, worst=self.WORST
        )
        order = np.random.default_rng(self.SCHEDULE_SEED)
        blocks = -(-(self.PREFILL + self.requests) // self.DOCUMENTS)
        self.schedule = [
            self.documents[int(pick)].document_id
            for _ in range(blocks)
            for pick in order.permutation(self.DOCUMENTS)
        ]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        reset_shared_cache()
        self._run(self.PREFILL // 2, UNTRACED)

    def _fresh(self) -> deploy.Deployment:
        self.path.unlink(missing_ok=True)
        return deploy.make_deployment(
            self.documents,
            stream_caps=self.STREAM_CAPS,
            disk=deploy.striped_disk(),
            journal=ReservationJournal(self.path),  # flush per record, fsync off
            link_bps=self.LINK_BPS,
            cold_cache=False,
        )

    def _one(
        self, deployment: deploy.Deployment, live: deque, document_id: str
    ) -> NegotiationResult:
        manager = deployment.manager
        result = manager.negotiate(
            document_id, self.profile, deployment.client
        )
        self._verdict_at = perf_counter()
        if result.commitment is not None:
            result.commitment.confirm(manager.clock.now())
            live.append(result.commitment)
            if len(live) > self.WINDOW:
                live.popleft().release()
        elif live:
            live.popleft().release()
        return result

    def _run(self, timed: int, trace: Any) -> Round:
        deployment = self._fresh()
        live: deque = deque()
        one = trace.root(self._one)
        prefill = self.schedule[: self.PREFILL]
        for document_id in prefill:
            self._one(deployment, live, document_id)
        results = []
        latencies = []
        gc.collect()
        started = perf_counter()
        for document_id in self.schedule[self.PREFILL: self.PREFILL + timed]:
            t0 = perf_counter()
            results.append(one(deployment, live, document_id))
            latencies.append(self._verdict_at - t0)
        elapsed = perf_counter() - started
        round_ = Round(elapsed, len(results), latencies)
        tally(round_, results)

        # Recovery phase: a restart reads back the file the walk wrote.
        journal = deployment.journal
        assert journal is not None
        journal.close()
        size = self.path.stat().st_size
        t0 = perf_counter()
        with trace.span("journal.open"):
            reopened = ReservationJournal.open(self.path)
        t1 = perf_counter()
        with trace.span("journal.recovery.replay"):
            report = RecoveryManager(
                reopened,
                deployment.servers,
                deployment.transport,
                clock=deployment.manager.clock,
            ).replay()
        t2 = perf_counter()
        records = len(journal)
        if len(reopened) < records or report.active_sessions != len(live):
            round_.failed += 1
        deployment.manager.committer.journal = reopened
        while live:
            live.popleft().release()
        round_.failed += teardown_breaches(deployment.leaked(), reopened)
        reopened.close()
        self.path.unlink(missing_ok=True)
        round_.extras = {
            "journal_bytes": float(size),
            "journal_records": float(records),
            "journal_verdicts": float(len(prefill) + len(results)),
            "open_s": t1 - t0,
            "replay_s": t2 - t1,
        }
        return round_

    def round(self, index: int, trace: Any) -> Round:
        return self._run(self.requests, trace)

    def finish(self) -> int:
        self.path.unlink(missing_ok=True)
        return 0


# -- sim-clock workloads -----------------------------------------------------------


class ServiceOverload(Workload):
    """The whole stack as ``repro load`` wires it, under a flash crowd."""

    name = "service_overload"
    armed = True
    # Calibrated (see README): at 3x the flash crowd leaves 35-65% of
    # verdicts holding resources; 4x already drops to ~40%.
    MULTIPLIER = 3.0
    HORIZON_S = 120.0
    WARMUP_HORIZON_S = 15.0
    RECORDER_INTERVAL_S = 1.0

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.horizon_s = max(20.0, self.HORIZON_S * scale)

    def targets(self) -> "list[Target]":
        return service_targets(self.armed)

    def _spec(self, horizon_s: float) -> LoadSpec:
        return LoadSpec(
            arrival=ArrivalSpec(
                kind="flash",
                horizon_s=horizon_s,
                spike_start_s=horizon_s / 3.0,
                spike_duration_s=horizon_s / 6.0,
            ),
            seed=self.seed,
        )

    def _arrivals(self, arrival: ArrivalSpec) -> "list[float]":
        """One draw of the flash crowd, stratified: arrival ``i`` falls
        uniformly inside the ``i``-th of ``n`` equal slices of the
        cumulative intensity, ``n`` being its rounded total.  Every
        seed offers the same number of requests with the same shape and
        its own timings; a plain Poisson draw moves the offered count,
        and with it the share of cheap shed verdicts, by several
        percent from seed to seed."""
        rng = np.random.default_rng([self.seed, 14])
        spike_end = arrival.spike_start_s + arrival.spike_duration_s
        knots = [0.0, arrival.spike_start_s, spike_end, arrival.horizon_s]
        intensity = [0.0]
        for left, right in zip(knots, knots[1:]):
            rate = arrival.rate_at((left + right) / 2.0) * self.MULTIPLIER
            intensity.append(intensity[-1] + rate * (right - left))
        count = int(round(intensity[-1]))
        targets = (np.arange(count) + rng.random(count)) / count
        return [
            float(t)
            for t in np.interp(targets * intensity[-1], intensity, knots)
        ]

    def setup(self) -> None:
        self.profile = ProfileManager().get(LoadSpec().profile_name)
        self.spec = self._spec(self.horizon_s)
        self.arrivals = self._arrivals(self.spec.arrival)
        warm = self._spec(self.WARMUP_HORIZON_S)
        self._run(warm, self._arrivals(warm.arrival), UNTRACED, self.armed)

    def _run(
        self,
        spec: LoadSpec,
        arrivals: "list[float]",
        trace: Any,
        armed: bool,
    ) -> Round:
        journal = ReservationJournal()
        scenario = build_scenario(
            spec.deployment(),
            journal=journal,
            telemetry_seed=self.seed if armed else None,
        )
        recorder = None
        if armed:
            recorder = FlightRecorder(
                scenario.telemetry, interval_s=self.RECORDER_INTERVAL_S
            )
            recorder.arm(scenario.loop, until=spec.arrival.horizon_s)
        gate = AdmissionGate(
            scenario.loop,
            policy=spec.gate,
            seed=spec.seed,
            telemetry=scenario.telemetry,
        )
        service = NegotiationService(
            scenario.manager,
            scenario.loop,
            policy=spec.service,
            gate=gate,
            scheduler_seed=spec.scheduler_seed,
            seed=spec.seed,
            telemetry=scenario.telemetry,
            coalesce=True,
        )
        clients = list(scenario.clients.values())
        documents = scenario.document_ids()
        profile = self.profile

        def submit(index: int) -> None:
            service.submit(
                documents[index % len(documents)],
                profile,
                clients[index % len(clients)],
                label=f"load-{index + 1}",
            )

        for index, when in enumerate(arrivals):
            scenario.loop.at(when, lambda i=index: submit(i))
        run = trace.root(scenario.loop.run, "service.loop.run")
        gc.collect()
        started = perf_counter()
        run(max_events=4_000_000)
        elapsed = perf_counter() - started

        if recorder is not None:
            recorder.finish(scenario.clock.now())
        results = [
            request.result
            for request in service.requests
            if request.result is not None
        ]
        round_ = Round(elapsed, len(results))
        tally(round_, results)
        round_.failed += len(service.unfinished())
        leaked = (
            sum(s.stream_count for s in scenario.servers.values()),
            scenario.transport.flow_count,
            scenario.topology.total_reserved_bps(),
        )
        round_.failed += teardown_breaches(leaked, journal)
        waits = [
            request.verdict_wait_s
            for request in service.requests
            if request.verdict_wait_s is not None
        ]
        scheduler = service.scheduler.stats
        round_.extras = {
            "sim_verdict_p99_s": float(np.percentile(waits, 99.0)),
            "steps": float(scheduler.switches + scheduler.sleeps),
            "gate_submitted": float(gate.stats.submitted),
            "gate_shed": float(gate.stats.shed),
            "gate_requeued": float(gate.stats.requeued_try_later),
            "journal_records": float(len(journal)),
            "journal_bytes": float(sum(
                len(record.to_line()) + 1 for record in journal
            )),
        }
        return round_

    def round(self, index: int, trace: Any) -> Round:
        return self._run(self.spec, self.arrivals, trace, self.armed)

    def bare_round(self, index: int) -> Round:
        """The same seed with the hub disabled (untraced): the other
        side of ``telemetry.overhead_share``."""
        return self._run(self.spec, self.arrivals, UNTRACED, False)


class ServiceOverloadBare(ServiceOverload):
    """``service_overload`` with the telemetry hub disabled."""

    name = "service_overload_bare"
    armed = False
    bare_round = None  # type: ignore[assignment]


class StormAdapt(Workload):
    """Brownout at peak load; adaptation over classified offer lists."""

    name = "storm_adapt"
    SEEDS = 8
    cycle = SEEDS
    SESSIONS = 200
    LATE = 40
    WARMUP_SESSIONS = 20

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.sessions = scaled(self.SESSIONS, scale, 20)
        self.late = scaled(self.LATE, scale, 4)

    def targets(self) -> "list[Target]":
        return storm_targets()

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 15])
        self.seeds = [
            int(s) for s in rng.integers(1, 2**31 - 1, size=self.SEEDS)
        ]
        run_storm(StormSpec(
            seed=self.seeds[0],
            sessions=self.WARMUP_SESSIONS,
            late_requests=self.WARMUP_SESSIONS // 5,
        ))

    def round(self, index: int, trace: Any) -> Round:
        spec = StormSpec(
            seed=self.seeds[index % self.SEEDS],
            sessions=self.sessions,
            late_requests=self.late,
        )
        storm = trace.root(run_storm, "sim.storm.run_storm")
        gc.collect()
        started = perf_counter()
        report, scenario = storm(spec)
        elapsed = perf_counter() - started

        outcomes = report.adaptations + report.failed_adaptations
        round_ = Round(elapsed, report.negotiations + outcomes)
        round_.refused = report.blocked
        round_.reserving = report.succeeded + report.degraded_offers
        round_.signatures = [
            sorted(report.statuses.items()),
            report.adaptations,
            report.failed_adaptations,
            report.commit_attempts,
            sorted(report.gate.items()),
            sorted(report.waves.items()),
            report.journal_records,
        ]
        taxonomy = {str(status) for status in NegotiationStatus}
        round_.failed += sum(
            count for status, count in report.statuses.items()
            if status not in taxonomy
        )
        round_.failed += sum(
            1 for hint in report.retry_after_hints if not hint > 0.0
        )
        round_.failed += int(
            len(report.retry_after_hints) != report.blocked
        )
        round_.failed += int(not report.survived)
        submitted = report.gate.get("submitted", 0)
        processed = report.waves.get("sessions_processed", 0)
        round_.extras = {
            "gate_submitted": float(submitted),
            "gate_shed": float(report.gate.get("shed", 0)),
            "gate_requeued": float(report.gate.get("requeued_try_later", 0)),
            "fastpath": float(report.waves.get("inplace_switches", 0)),
            "wave_sessions": float(processed),
            "adaptations": float(report.adaptations),
            "failed_adaptations": float(report.failed_adaptations),
            "journal_records": float(report.journal_records),
        }
        return round_


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        PlanUnshared,
        PlanSharedZipf,
        WalkContended,
        ServiceOverload,
        ServiceOverloadBare,
        StormAdapt,
    )
}
