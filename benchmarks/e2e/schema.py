"""The one table: workloads, metrics, units, bounds and predictions.

``run.py --list`` prints it, ``test_smoke.py`` checks results against
it, and ``BENCHMARK.json`` at the repository root is
:func:`benchmark_json` serialised (the smoke test asserts the two
agree).  Layer names are this repository's module names.

The driver contract runs one workload per invocation and expects
*every* end-to-end metric from *every* workload, never zero.  Metrics
that exist on one workload only (journal replay rate, the telemetry-off
throughput, sim-clock latency) are therefore carried as per-layer
metrics of the layer that owns them; the telemetry-off throughput
additionally gets its own workload (``service_overload_bare``) so it
still has a regression bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "RUN_SECONDS",
    "Workload",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "EXACT",
    "benchmark_json",
    "check_limits",
]

RUN_SECONDS = 10
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str          # one line, at most 200 characters
    inputs: str
    dominant: str     # layers that do most of the work
    bypasses: str     # the mechanism this workload does not exercise


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "higher" | "lower"
    bound: "float | None" = None  # end-to-end only
    moves: str = ""             # the end-to-end metric it should move, and where
    applies: "tuple[str, ...]" = ()  # empty = every workload


WORKLOADS = (
    Workload(
        "plan_unshared",
        "fresh profile per request on 4^6 offer spaces: steps 1-4 "
        "dominate and fingerprinting finds no profile to share",
        "8 documents of 4^6 = 4096 offers; every request perturbs the "
        "cost ceiling, so every profile fingerprint is new; verdict "
        "rejected at once (attempts = 1); no journal",
        "core.negotiation, core.stream, perf.fingerprint",
        "batch class sharing, classification reuse",
    ),
    Workload(
        "plan_shared_zipf",
        "Zipf(1.2) over four 4^10 catalogue documents, 16 classes, "
        "batched: planning amortises away and the 10-flow commit "
        "remains",
        "4 documents of 4^10 = 1,048,576 offers, max_offers=64, 4 "
        "profiles, negotiate_batch in batches of 2048; no journal",
        "core.commitment, cmfs, network (10 flows per commit), batch",
        "per-request planning (all cache and class hits)",
    ),
    Workload(
        "walk_contended",
        "uneven stream caps and 40 live sessions: the step-5 walk goes "
        "5-15 offers deep through a file journal, then replays it",
        "3 documents of 4^4 = 256 offers, one profile, stream caps "
        "26/70/200 on the striped disk, FIFO window of 40 confirmed "
        "sessions, file journal (flush per record, fsync off), then "
        "close -> open -> RecoveryManager.replay",
        "core.commitment, cmfs, network, journal, core.stream (deep pulls)",
        "planning (one cached space, one profile)",
    ),
    Workload(
        "service_overload",
        "flash crowd at 3x through gate, scheduler, journal and armed "
        "telemetry, as `repro load` wires the stack",
        "build_scenario(LoadSpec().deployment()), in-memory journal, "
        "AdmissionGate, NegotiationService(coalesce=True), Telemetry "
        "hub armed, FlightRecorder at 1 s; window = loop.run()",
        "service.scheduler, storm.gate, journal, telemetry",
        "heavy planning (lean 2-axis documents, max_offers=8)",
    ),
    Workload(
        "service_overload_bare",
        "the same flash crowd with the telemetry hub disabled: the "
        "floor that always-on counters must not raise",
        "as service_overload with telemetry_seed=None and no recorder",
        "service.scheduler, storm.gate, journal",
        "telemetry",
    ),
    Workload(
        "storm_adapt",
        "brownout at peak load: adaptation switches over already "
        "classified offer lists, with backpressure on",
        "run_storm(StormSpec(seed=s)) cycling 8 seeds: 200 sessions "
        "+ 40 late arrivals, 40% brownout; an operation is a verdict "
        "or an adaptation outcome",
        "storm.controller, core.adaptation, core.commitment",
        "fresh classification (lists are reused, not rebuilt)",
    ),
)

CLOSED_LOOP = ("plan_unshared", "plan_shared_zipf", "walk_contended")
SERVICE = ("service_overload", "service_overload_bare")

END_TO_END = (
    Metric(
        "verdicts_per_s", "1/s", "higher", 0.15,
        "terminal verdicts (storm_adapt: verdicts and adaptation "
        "outcomes) per wall-second scaled to the reference speed "
        "(reference.py); median over rounds",
    ),
    Metric(
        "verdict_p50_ms", "ms", "lower", 0.15,
        "wall time from call to verdict, pooled over the window; on "
        "plan_shared_zipf from batch submission to the member's mark; "
        "on the sim-clock workloads the public API has no per-verdict "
        "wall stamp, so this is the round's wall ms per verdict",
    ),
    Metric(
        "served_share", "ratio", "higher", 0.15,
        "1 - (FAILEDTRYLATER + shed) / attempted, on the first round; "
        "deterministic per seed; guards against speed bought by "
        "refusing more",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the fresh process that ran the workload",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "document and deployment build plus warm-up, median of 5 "
        "set-ups; on storm_adapt run_storm builds its deployment "
        "inside the timed call, so this is seed derivation plus a "
        "20-session warm-up storm",
    ),
)

# Deterministic per seed: --check-repeat requires bit equality.
EXACT = (
    "served_share",
    "core.commitment.attempts_per_verdict",
    "core.commitment.rollback_ratio",
    "journal.bytes_per_verdict",
    "journal.bytes_per_record",
    "journal.appends_per_verdict",
    "service.sim_verdict_p99_s",
    "service.reserving_share",
    "storm.gate.shed_ratio",
    "storm.gate.requeues_per_request",
)

_V = "verdicts_per_s"
PER_LAYER = (
    Metric("core.negotiation.plan_ms", "ms", "lower",
           moves=f"verdict_p50_ms and {_V} on plan_unshared; ~0 on walk_contended"),
    Metric("core.negotiation.complete_ms", "ms", "lower",
           moves=f"verdict_p50_ms and {_V} on walk_contended; small on plan_unshared"),
    Metric("core.negotiation.plan_share", "ratio", "lower",
           moves="ceiling on any planning gain, per workload"),
    Metric("core.enumeration.build_ms", "ms", "lower",
           moves=f"{_V} on plan_unshared (cold spaces only)"),
    Metric("core.enumeration.builds_per_verdict", "ratio", "lower",
           moves="~0 on plan_shared_zipf"),
    Metric("core.classification.classify_ms", "ms", "lower",
           moves=f"{_V} on service_overload (eager path); none on plan_*"),
    Metric("core.classification.offers_per_verdict", "count", "lower",
           moves=f"{_V} on service_overload"),
    Metric("core.stream.first_offer_ms", "ms", "lower",
           moves="verdict_p50_ms on plan_unshared"),
    Metric("core.stream.next_us", "us", "lower",
           moves=f"{_V} on walk_contended"),
    Metric("core.stream.pulled_per_attempt", "ratio", "lower",
           moves=f"{_V} on walk_contended"),
    Metric("perf.cache.key_us", "us", "lower",
           moves="pure overhead on plan_unshared"),
    Metric("perf.cache.space_hit_ratio", "ratio", "higher",
           moves=f"{_V} on plan_shared_zipf"),
    Metric("perf.cache.classification_hit_ratio", "ratio", "higher",
           moves=f"{_V} on plan_shared_zipf; 0 on plan_unshared"),
    Metric("perf.cache.evictions", "count", "lower",
           moves=f"{_V} on plan_unshared if the stores ever thrash"),
    Metric("batch.class_key_us", "us", "lower",
           moves=f"{_V} on plan_shared_zipf only"),
    Metric("batch.plans_per_request", "ratio", "lower",
           moves=f"{_V} and verdict_p50_ms on plan_shared_zipf only"),
    Metric("batch.batch_ms", "ms", "lower",
           moves="verdict_p50_ms on plan_shared_zipf only"),
    Metric("core.commitment.try_commit_us", "us", "lower",
           moves=f"{_V} on walk_contended; smaller on storm_adapt"),
    Metric("core.commitment.attempts_per_verdict", "ratio", "lower",
           moves="must stay exact on every workload"),
    Metric("core.commitment.rollback_ratio", "ratio", "lower",
           moves=f"{_V} on walk_contended"),
    Metric("core.commitment.settle_us", "us", "lower",
           moves=f"{_V} on plan_shared_zipf and walk_contended"),
    Metric("cmfs.admit_us", "us", "lower",
           moves=f"{_V} on walk_contended and plan_shared_zipf"),
    Metric("cmfs.refusal_ratio", "ratio", "lower",
           moves=f"{_V} on walk_contended"),
    Metric("network.reserve_us", "us", "lower",
           moves=f"{_V} on walk_contended and plan_shared_zipf"),
    Metric("network.refusal_ratio", "ratio", "lower",
           moves=f"{_V} on walk_contended"),
    Metric("journal.append_us", "us", "lower",
           moves=f"{_V} on walk_contended"),
    Metric("journal.appends_per_verdict", "ratio", "lower",
           moves=f"{_V} on walk_contended; journal.bytes_per_verdict"),
    Metric("journal.bytes_per_record", "B", "lower",
           moves="journal.bytes_per_verdict"),
    Metric("journal.bytes_per_verdict", "B", "lower",
           moves="file size over verdicts on walk_contended; exact",
           applies=("walk_contended",)),
    Metric("journal.open_records_per_s", "1/s", "higher",
           moves="journal.replay_records_per_s",
           applies=("walk_contended",)),
    Metric("journal.recovery.replay_ms", "ms", "lower",
           moves="journal.replay_records_per_s",
           applies=("walk_contended",)),
    Metric("journal.replay_records_per_s", "1/s", "higher",
           moves="records opened, CRC-checked and replayed per "
                 "wall-second after the walk_contended round",
           applies=("walk_contended",)),
    Metric("service.submit_us", "us", "lower",
           moves=f"{_V} on service_overload(+_bare)", applies=SERVICE),
    Metric("service.step_us", "us", "lower",
           moves=f"{_V} on service_overload(+_bare)", applies=SERVICE),
    Metric("service.steps_per_verdict", "ratio", "lower",
           moves=f"{_V} and service.sim_verdict_p99_s", applies=SERVICE),
    Metric("service.coalesced_ratio", "ratio", "higher",
           moves=f"{_V} on service_overload(+_bare)", applies=SERVICE),
    Metric("service.sim_verdict_p99_s", "s", "lower",
           moves="sim-clock submission-to-verdict p99; exact; only "
                 "scheduling or gate logic moves it",
           applies=SERVICE),
    Metric("service.reserving_share", "ratio", "higher",
           moves="calibration target 0.35-0.65 on service_overload",
           applies=SERVICE),
    Metric("storm.gate.submit_us", "us", "lower",
           moves=f"{_V} on service_overload(+_bare)",
           applies=SERVICE + ("storm_adapt",)),
    Metric("storm.gate.shed_ratio", "ratio", "lower",
           moves="served_share and service.sim_verdict_p99_s",
           applies=SERVICE + ("storm_adapt",)),
    Metric("storm.gate.requeues_per_request", "ratio", "lower",
           moves="served_share and service.sim_verdict_p99_s",
           applies=SERVICE + ("storm_adapt",)),
    Metric("storm.controller.violation_us", "us", "lower",
           moves=f"{_V} on storm_adapt only", applies=("storm_adapt",)),
    Metric("storm.controller.fastpath_ratio", "ratio", "higher",
           moves=f"{_V} on storm_adapt only", applies=("storm_adapt",)),
    Metric("core.adaptation.adapt_ms", "ms", "lower",
           moves=f"{_V} on storm_adapt only", applies=("storm_adapt",)),
    Metric("core.adaptation.failed_ratio", "ratio", "lower",
           moves=f"{_V} on storm_adapt only", applies=("storm_adapt",)),
    Metric("telemetry.overhead_share", "ratio", "lower",
           moves="1 - armed/bare throughput, paired untraced rounds; "
                 "the budget always-on counters must fit in",
           applies=("service_overload",)),
    Metric("telemetry.bare_verdicts_per_s", "1/s", "higher",
           moves="the bare side of telemetry.overhead_share",
           applies=("service_overload",)),
    Metric("telemetry.spans_per_verdict", "ratio", "lower",
           moves="telemetry.overhead_share", applies=("service_overload",)),
    Metric("calibration.plan_s", "s", "lower",
           moves="measured median of one plan(); ServicePolicy assumes 0.005",
           applies=SERVICE),
    Metric("calibration.reservation_step_s", "s", "lower",
           moves="measured median of one reservation step; "
                 "ServicePolicy assumes 0.01",
           applies=SERVICE),
    Metric("bench.verdict_p99_ms", "ms", "lower",
           moves="tail of verdict_p50_ms; demoted from end-to-end: its "
                 "run-to-run spread exceeds a tenth on a shared host",
           applies=CLOSED_LOOP),
    Metric("bench.raw_verdicts_per_s", "1/s", "higher",
           moves="verdicts_per_s before scaling to the reference speed"),
    Metric("bench.speed_index", "ratio", "lower",
           moves="reference kernel time over its nominal, median over "
                 "rounds: 1 = nominal machine, above 1 = slower"),
    Metric("bench.trace_overhead_share", "ratio", "lower",
           moves="traced over untraced wall per verdict, minus 1"),
    Metric("bench.self_time_residual", "ratio", "lower",
           moves="|sum of self times - roots| / roots; asserted <= 0.02"),
)


def applies(metric: Metric, workload: str) -> bool:
    return not metric.applies or workload in metric.applies


def benchmark_json() -> "dict[str, object]":
    """The driver-facing definition, exactly the contract's keys."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def check_limits() -> "list[str]":
    """Breaches of the contract's naming and count limits."""
    problems: "list[str]" = []
    if not 2 <= len(WORKLOADS) <= 8:
        problems.append(f"{len(WORKLOADS)} workloads (2..8 allowed)")
    if not 1 <= len(END_TO_END) <= 16:
        problems.append(f"{len(END_TO_END)} end-to-end metrics (1..16)")
    if not 1 <= len(PER_LAYER) <= 128:
        problems.append(f"{len(PER_LAYER)} per-layer metrics (1..128)")
    names = [w.name for w in WORKLOADS]
    names += [m.name for m in END_TO_END + PER_LAYER]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for workload in WORKLOADS:
        if len(workload.why) > 200 or "\n" in workload.why:
            problems.append(f"why of {workload.name} is not one short line")
    for metric in END_TO_END:
        if metric.bound is None or not 0 < metric.bound <= 0.25:
            problems.append(f"bound of {metric.name} outside (0, 0.25]")
    if not any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in END_TO_END
    ):
        problems.append("setup_s missing")
    return problems
