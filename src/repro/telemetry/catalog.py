"""The metric catalog: every instrument the library may emit.

Metrics are declared here, not at the call site — the registry rejects
names outside the catalog (and reprolint REP011 flags them statically),
so a typo can never silently fork a time series.  Units follow the
simulation's conventions: seconds are *simulated* seconds read from the
injected clock, never wall time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["MetricKind", "MetricSpec", "METRICS", "CATALOG", "metric_names"]


class MetricKind(enum.Enum):
    COUNTER = "counter"
    GAUGE = "gauge"
    HISTOGRAM = "histogram"


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """Declaration of one instrument."""

    name: str
    kind: MetricKind
    unit: str
    description: str
    label: "str | None" = None        # at most one label dimension
    buckets: "tuple[float, ...]" = ()  # histogram upper bounds


def _counter(
    name: str, unit: str, description: str, label: "str | None" = None
) -> MetricSpec:
    return MetricSpec(name, MetricKind.COUNTER, unit, description, label)


def _gauge(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, MetricKind.GAUGE, unit, description)


def _histogram(
    name: str, unit: str, description: str, buckets: "tuple[float, ...]"
) -> MetricSpec:
    return MetricSpec(
        name, MetricKind.HISTOGRAM, unit, description, buckets=buckets
    )


METRICS: "tuple[MetricSpec, ...]" = (
    # -- negotiation procedure (paper §4 steps 1-6) ---------------------------------
    _counter("negotiation.outcomes", "negotiations",
             "negotiations finished, by final status", "status"),
    _counter("negotiation.offers.enumerated", "variants",
             "variants considered by the step-2 compatibility filter"),
    _counter("negotiation.offers.dropped", "variants",
             "variants/offers dropped, by negotiation step", "step"),
    _counter("admission.attempts", "calls",
             "individual reservation calls (server admit or network "
             "reserve), by target", "target"),
    _counter("admission.retries", "calls",
             "backoff retries of reservation calls, by target", "target"),
    _counter("admission.refusals", "calls",
             "reservation calls that failed after retries, by target",
             "target"),
    _counter("commitment.rollbacks", "offers",
             "offer commitments rolled back after a partial reservation"),
    _counter("commitment.memo_skips", "offers",
             "step-5 attempts answered by the walk's refusal memo, "
             "without a reservation call"),
    _counter("commitment.outcomes", "commitments",
             "step-6 commitment resolutions, by final state", "state"),
    # -- resilience stack -----------------------------------------------------------
    _counter("breaker.skips", "offers",
             "offers skipped because a server was quarantined"),
    _counter("breaker.opens", "transitions",
             "circuit-breaker trips to OPEN, by server", "server"),
    _counter("breaker.open_time_s", "seconds",
             "cumulative simulated time servers spent quarantined",
             "server"),
    _counter("leases.reaped", "leases",
             "expired/zombie reservation leases collected"),
    # -- write-ahead journal / crash recovery ---------------------------------------
    _counter("journal.records", "records",
             "write-ahead journal appends, by record type", "type"),
    _counter("recovery.replays", "replays",
             "journal replays after a manager crash"),
    _counter("recovery.holders", "holders",
             "holders reconciled by recovery, by outcome", "outcome"),
    # -- active phase (sessions, monitoring, adaptation) ----------------------------
    _counter("adaptation.switches", "transitions",
             "adaptation attempts, by outcome", "outcome"),
    _counter("session.started", "sessions", "playout sessions started"),
    _counter("session.completed", "sessions", "playout sessions completed"),
    _counter("session.aborted", "sessions", "playout sessions aborted"),
    _counter("monitor.violations", "violations",
             "QoS violations detected by the monitor sweep, by source",
             "source"),
    _counter("supervisor.heartbeats", "beats",
             "liveness signals (explicit heartbeats or playout progress)"),
    _counter("supervisor.releases", "sessions",
             "sessions released by the supervisor (stalled or dead)"),
    # -- storm survival layer (repro.storm) -----------------------------------------
    _counter("storm.gate.decisions", "requests",
             "admission-gate verdicts on incoming negotiation/"
             "renegotiation requests, by decision "
             "(admitted/queued/shed)", "decision"),
    _counter("storm.gate.retries", "requests",
             "queued requests re-dispatched after their jittered "
             "not-before time"),
    _counter("storm.waves", "waves",
             "renegotiation waves processed by the storm controller"),
    _counter("storm.downgrades", "sessions",
             "storm-controller downgrade attempts, by outcome "
             "(in-place/fallback/failed)", "outcome"),
    # -- concurrent negotiation service (repro.service) -----------------------------
    _counter("service.tasks", "tasks",
             "cooperative scheduler tasks finished, by outcome "
             "(completed/failed)", "outcome"),
    _counter("service.deadline.overruns", "negotiations",
             "negotiations whose step-5 walk exhausted its deadline "
             "budget and returned an honest FAILEDTRYLATER"),
    _counter("load.arrivals", "requests",
             "load-generator arrivals submitted to the service, by "
             "arrival process (poisson/diurnal/flash)", "process"),
    # -- negotiation cache (repro.perf) ---------------------------------------------
    _counter("cache.hits", "lookups",
             "negotiation cache lookups served from memory, by store",
             "store"),
    _counter("cache.misses", "lookups",
             "negotiation cache lookups that had to compute, by store",
             "store"),
    _counter("cache.evictions", "entries",
             "negotiation cache entries evicted (LRU or invalidation), "
             "by store", "store"),
    _counter("cache.flushes", "entries",
             "negotiation cache entries discarded by an explicit "
             "clear(), by store — kept apart from cache.evictions so "
             "the SLO eviction-rate series only sees capacity pressure",
             "store"),
    # -- batch negotiation engine (repro.batch) --------------------------------------
    _counter("batch.plans", "plans",
             "equivalence-class plans computed once by the batch "
             "engine and fanned out to every member"),
    _counter("batch.coalesced", "requests",
             "negotiation requests that reused an equivalence-class "
             "plan instead of replanning, by site (batch/service)",
             "site"),
    # -- substrate ledgers ----------------------------------------------------------
    _counter("server.streams.reserved", "streams",
             "stream admissions granted, by server", "server"),
    _counter("server.streams.released", "streams",
             "stream reservations released, by server", "server"),
    _counter("network.flows.reserved", "flows",
             "end-to-end network flows reserved"),
    _counter("network.flows.released", "flows",
             "network flow reservations released"),
    # -- gauges ---------------------------------------------------------------------
    _gauge("sessions.active", "sessions",
           "playout sessions currently active"),
    _gauge("storm.queue.depth", "requests",
           "negotiation requests waiting in the admission gate's "
           "bounded retry queue"),
    _gauge("service.inflight", "negotiations",
           "negotiations submitted to the concurrent service and not "
           "yet delivered a terminal verdict"),
    # -- histograms -----------------------------------------------------------------
    _histogram("negotiation.latency_s", "seconds",
               "end-to-end negotiation latency in simulated seconds",
               (0.0, 0.5, 1.0, 5.0, 15.0, 60.0)),
    _histogram("negotiation.attempts", "attempts",
               "commitment attempts consumed per negotiation",
               (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0)),
    _histogram("negotiation.offers.classified", "offers",
               "feasible offers classified per negotiation",
               (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
    _histogram("batch.class_size", "requests",
               "pending requests fanned out per capability equivalence "
               "class in one batch negotiation",
               (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)),
    _histogram("storm.wave.batch_size", "sessions",
               "sessions re-reserved per capability-class batch in one "
               "storm wave",
               (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)),
    _histogram("storm.retry.convergence_s", "seconds",
               "simulated time from a request's first gate submission "
               "to its terminal verdict",
               (0.0, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0)),
    _histogram("service.verdict.wait_s", "seconds",
               "simulated time from service submission to terminal "
               "verdict (includes gate queueing)",
               (0.0, 0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0)),
    _histogram("service.walk.switches", "switches",
               "cooperative yield points consumed by one negotiation's "
               "step-5 walk",
               (0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)),
    _histogram("storm.gate.wait_s", "seconds",
               "simulated time a request spent parked in the admission "
               "gate's retry queue before dispatch (0 when admitted "
               "immediately)",
               (0.0, 0.5, 1.0, 2.0, 5.0, 15.0, 30.0, 60.0, 120.0)),
)

CATALOG: "dict[str, MetricSpec]" = {spec.name: spec for spec in METRICS}


def metric_names() -> "frozenset[str]":
    """Every registered metric name (the REP011 allow-list)."""
    return frozenset(CATALOG)
