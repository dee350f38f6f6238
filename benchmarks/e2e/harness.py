"""Measure one workload: set-up, untraced rounds, optional traced rounds.

Every measured window is bracketed by the reference kernel
(:mod:`reference`) and every timed figure is wall seconds scaled to the
reference speed.  End-to-end metrics always come from untraced rounds.
A traced invocation alternates untraced rounds (the reference for
``bench.trace_overhead_share``, and the source of the single-workload
figures such as journal replay rate and the telemetry-off throughput)
with rounds that have the layers' public callables wrapped.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.perf.cache import shared_cache

import schema
from reference import kernel_samples, speed_index
from trace import NullTrace, Trace, TraceSummary
from workloads import OUT_DIR, WORKLOAD_CLASSES, Round

__all__ = ["Measurement", "measure", "digest_of"]

SETUPS = 5
MIN_ROUNDS = 3
RESIDUAL_LIMIT = 0.02
COMPLETE_IN_NEGOTIATE = (
    "core.negotiation.complete", "core.negotiation.negotiate"
)


@dataclass
class Measurement:
    """One invocation's outcome, ready to print."""

    attempted: int = 0
    failed: int = 0
    metrics: "dict[str, float]" = field(default_factory=dict)
    digest: str = ""
    rounds: int = 0
    layer_shares: "dict[str, float]" = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def digest_of(signatures: "list[Any]") -> str:
    return hashlib.sha256(repr(signatures).encode("utf-8")).hexdigest()


def percentile(ordered: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measured(work: Any) -> Round:
    """One round with its speed index attached."""
    round_, round_.speed = bracketed(work)
    return round_


def bracketed(work: Any) -> "tuple[Any, float]":
    """Run ``work()`` between two bursts of the reference kernel and
    return its result with the speed index of that stretch of time."""
    before = kernel_samples()
    result = work()
    return result, speed_index(before + kernel_samples())


def run_rounds(
    run: Any, budget_s: float, trace: "Trace | None", min_rounds: int
) -> "tuple[list[Round], list[Round], list[Round]]":
    """Rounds until ``budget_s`` of measured window is spent (at least
    ``min_rounds`` of each kind): ``(untraced, bare twins, traced)``.

    With a trace, every untraced round is followed at once by a traced
    round of the same inputs (and, where the workload has one, by its
    telemetry-off twin), so the ratios between them compare windows a
    second apart rather than phases of the run.  Every window counts
    against the budget.
    """
    untraced = NullTrace()
    rounds: "list[Round]" = []
    twins: "list[Round]" = []
    traced_rounds: "list[Round]" = []
    bare_round = getattr(run, "bare_round", None) if trace else None
    spent = 0.0
    while spent < budget_s or len(rounds) < min_rounds:
        index = len(rounds)
        batch = [measured(lambda: run.round(index, untraced))]
        rounds.append(batch[0])
        if bare_round is not None:
            twins.append(measured(lambda: bare_round(index)))
            batch.append(twins[-1])
        if trace is not None:
            with trace.patched(run.targets()):
                traced_rounds.append(
                    measured(lambda: run.round(index, trace))
                )
            trace.round_ends.append(len(trace.spans))
            batch.append(traced_rounds[-1])
        spent += sum(round_.elapsed_s for round_ in batch)
    return rounds, twins, traced_rounds


def measure(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float = 1.0,
) -> Measurement:
    cls = WORKLOAD_CLASSES[name]
    # Below full size (the smoke run) the figures are not read, so one
    # set-up and two rounds of each kind are enough.
    setups, min_rounds = (SETUPS, MIN_ROUNDS) if scale >= 1.0 else (1, 2)
    setup_times = []
    run: Any = None

    def set_up() -> float:
        nonlocal run
        started = perf_counter()
        run = cls(seed, scale)
        run.setup()
        return perf_counter() - started

    for _ in range(setups):
        gc.collect()
        elapsed, speed = bracketed(set_up)
        setup_times.append(elapsed / speed)

    outcome = Measurement()
    trace = Trace() if traced else None
    cache_before = cache_counts()
    rounds, twins, traced_rounds = run_rounds(
        run, seconds, trace, min_rounds
    )
    cache_after = cache_counts()
    outcome.failed += run.finish()

    every = rounds + twins + traced_rounds
    outcome.attempted = sum(r.operations for r in every)
    outcome.failed += sum(r.failed for r in every)
    outcome.rounds = len(rounds)
    outcome.digest = digest_of(rounds[0].signatures)
    # Rounds that replay round 0's inputs must reproduce its outcomes.
    if run.cycle:
        for kind in (rounds, twins, traced_rounds):
            for round_ in kind[:: run.cycle]:
                if digest_of(round_.signatures) != outcome.digest:
                    outcome.failed += 1

    if trace is not None:
        summary = trace.summary(
            [r.speed for r in traced_rounds],
            keep_durations=(
                "core.negotiation.plan", "core.commitment.iter_commit",
            ),
            nested=(COMPLETE_IN_NEGOTIATE,),
        )
        outcome.metrics = per_layer_metrics(
            rounds, twins, traced_rounds, trace, summary,
            cache_before, cache_after,
        )
        outcome.layer_shares = summary.layer_shares()
        if summary.residual > RESIDUAL_LIMIT:
            outcome.failed += 1
        trace.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
    else:
        outcome.metrics = end_to_end_metrics(rounds, setup_times)
    return outcome


def cache_counts() -> "dict[str, dict[str, int]]":
    return shared_cache().stats.as_dict()


def throughput(rounds: "list[Round]") -> float:
    return median([ratio(r.operations, r.scaled_s) for r in rounds])


def pooled_latencies_ms(rounds: "list[Round]") -> "list[float]":
    """Per-verdict latencies (scaled); where the public API gives no
    per-verdict stamp, each round's milliseconds per verdict."""
    pooled = [
        lat * 1e3 / r.speed for r in rounds for lat in r.latencies_s
    ]
    if not pooled:
        pooled = [ratio(r.scaled_s, r.operations) * 1e3 for r in rounds]
    pooled.sort()
    return pooled


def end_to_end_metrics(
    rounds: "list[Round]", setup_times: "list[float]"
) -> "dict[str, float]":
    first = rounds[0]
    return {
        "verdicts_per_s": throughput(rounds),
        "verdict_p50_ms": percentile(pooled_latencies_ms(rounds), 0.50),
        "served_share": 1.0 - ratio(first.refused, first.operations),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "setup_s": median(setup_times),
    }


def per_layer_metrics(
    rounds: "list[Round]",
    twins: "list[Round]",
    traced_rounds: "list[Round]",
    trace: Trace,
    summary: TraceSummary,
    cache_before: "dict[str, dict[str, int]]",
    cache_after: "dict[str, dict[str, int]]",
) -> "dict[str, float]":
    stats = summary.stats
    verdicts = sum(r.operations for r in traced_rounds)
    first = rounds[0]

    def mean(span: str, unit: float) -> float:
        """Self time per call of one span name."""
        return ratio(stats(span).self_s, stats(span).count) * unit

    def own(*spans: str) -> float:
        return sum(stats(span).self_s for span in spans)

    def total(*spans: str) -> float:
        return sum(stats(span).total_s for span in spans)

    def count(*spans: str) -> int:
        return sum(stats(span).count for span in spans)

    def extra(key: str) -> float:
        return median([r.extras[key] for r in rounds if key in r.extras])

    def timed_extra(key: str) -> float:
        return median([
            r.extras[key] / r.speed for r in rounds if key in r.extras
        ])

    def cache_delta(kind: str, store: str) -> int:
        return cache_after[kind][store] - cache_before[kind][store]

    def hit_ratio(store: str) -> float:
        hits = cache_delta("hits", store)
        return ratio(hits, hits + cache_delta("misses", store))

    # Steps 1-4 are QoSManager.plan, or negotiate minus the complete
    # call inside it.  Under streaming the ordering is lazy: the pull
    # that produces the *first* classified offer (axis tables, heap
    # seed) is the remainder of planning wherever it runs; deeper
    # pulls exist only because step 5 walked further, so they stay
    # with the walk.
    first_pull_s = total("core.stream.first")
    complete_in_negotiate = summary.nested_s[COMPLETE_IN_NEGOTIATE]
    plan_s = (
        total("core.negotiation.plan")
        + total("core.negotiation.negotiate") - complete_in_negotiate
        + first_pull_s
    )
    complete_s = total("core.negotiation.complete") - first_pull_s
    walks = count("core.negotiation.complete")
    plans = count("core.negotiation.plan", "core.negotiation.negotiate")

    # Counts that must repeat exactly come from one round of fixed
    # inputs (the first), not from however many rounds the budget held.
    first_traced = traced_rounds[0]
    first_counts = trace.counts_in_round(0)
    if first.attempts is not None:
        first_attempts = first.attempts
        committed = first.reserving
        walk_attempts = sum(r.attempts for r in traced_rounds)
    else:
        # run_storm hands back a report, not results: a commit
        # succeeded for every reserving verdict and every adaptation.
        first_attempts = first_counts.get("core.commitment.try_commit", 0)
        committed = first_traced.reserving + first_traced.extras["adaptations"]
        walk_attempts = count("core.commitment.try_commit")
    attempts_per_verdict = ratio(first_attempts, first.operations)
    rollback_ratio = ratio(first_attempts - committed, first_attempts)
    commit_s = own(
        "core.commitment.try_commit", "core.commitment.iter_commit"
    )
    pulls = count("core.stream.first", "core.stream.next")
    class_keys = count("batch.class_key")
    batches = count("batch.negotiate_batch")
    armed = throughput(rounds)
    bare = throughput(twins)
    untraced_per_verdict = median([
        ratio(r.scaled_s, r.operations) for r in rounds
    ])
    traced_per_verdict = median([
        ratio(r.scaled_s, r.operations) for r in traced_rounds
    ])
    open_s = timed_extra("open_s")
    replay_s = timed_extra("replay_s")
    records = extra("journal_records")
    submitted = extra("gate_submitted")
    adaptations = extra("adaptations") + extra("failed_adaptations")
    plan_durations = sorted(stats("core.negotiation.plan").durations)
    step_durations = sorted(stats("core.commitment.iter_commit").durations)
    p99 = pooled_latencies_ms(rounds) if first.latencies_s else []

    values = {
        "core.negotiation.plan_ms": ratio(plan_s, plans) * 1e3,
        "core.negotiation.complete_ms": ratio(complete_s, walks) * 1e3,
        "core.negotiation.plan_share": ratio(plan_s, summary.root_s),
        "core.enumeration.build_ms": mean("core.enumeration.build", 1e3),
        "core.enumeration.builds_per_verdict": ratio(
            count("core.enumeration.build"), verdicts
        ),
        "core.classification.classify_ms": mean(
            "core.classification.classify", 1e3
        ),
        "core.classification.offers_per_verdict": ratio(
            first.offers_classified, first.operations
        ),
        "core.stream.first_offer_ms": ratio(
            total("core.stream.open", "core.stream.first"),
            count("core.stream.open"),
        ) * 1e3,
        "core.stream.next_us": mean("core.stream.next", 1e6),
        "core.stream.pulled_per_attempt": ratio(pulls, walk_attempts),
        "perf.cache.key_us": mean("perf.cache.key", 1e6),
        "perf.cache.space_hit_ratio": hit_ratio("spaces"),
        "perf.cache.classification_hit_ratio": hit_ratio("classifications"),
        "perf.cache.evictions": float(
            cache_delta("evictions", "spaces")
            + cache_delta("evictions", "classifications")
        ),
        "batch.class_key_us": mean("batch.class_key", 1e6),
        "batch.plans_per_request": (
            ratio(count("core.negotiation.plan"), verdicts) if batches else 0.0
        ),
        "batch.batch_ms": mean("batch.negotiate_batch", 1e3),
        "core.commitment.try_commit_us": ratio(commit_s, walk_attempts) * 1e6,
        "core.commitment.attempts_per_verdict": attempts_per_verdict,
        "core.commitment.rollback_ratio": rollback_ratio,
        "core.commitment.settle_us": mean("core.commitment.settle", 1e6),
        "cmfs.admit_us": mean("cmfs.admit", 1e6),
        "cmfs.refusal_ratio": ratio(
            stats("cmfs.admit").errors, stats("cmfs.admit").count
        ),
        "network.reserve_us": mean("network.reserve", 1e6),
        "network.refusal_ratio": ratio(
            stats("network.reserve").errors, stats("network.reserve").count
        ),
        "journal.append_us": mean("journal.append", 1e6),
        "journal.appends_per_verdict": ratio(
            first_counts.get("journal.append", 0), first_traced.operations
        ),
        "journal.bytes_per_record": ratio(extra("journal_bytes"), records),
        "journal.bytes_per_verdict": ratio(
            extra("journal_bytes"), extra("journal_verdicts")
        ),
        "journal.open_records_per_s": ratio(records, open_s),
        "journal.recovery.replay_ms": replay_s * 1e3,
        "journal.replay_records_per_s": ratio(records, open_s + replay_s),
        "service.submit_us": mean("service.submit", 1e6),
        "service.step_us": median([
            ratio(r.scaled_s, r.extras["steps"]) * 1e6
            for r in rounds if "steps" in r.extras
        ]),
        "service.steps_per_verdict": ratio(extra("steps"), first.operations),
        "service.coalesced_ratio": (
            1.0 - ratio(count("core.negotiation.plan"), class_keys)
            if count("service.submit") else 0.0
        ),
        "service.sim_verdict_p99_s": first.extras.get(
            "sim_verdict_p99_s", 0.0
        ),
        "service.reserving_share": ratio(first.reserving, first.operations),
        "storm.gate.submit_us": mean("storm.gate.submit", 1e6),
        "storm.gate.shed_ratio": ratio(
            first.extras.get("gate_shed", 0.0), submitted
        ),
        "storm.gate.requeues_per_request": ratio(
            first.extras.get("gate_requeued", 0.0), submitted
        ),
        "storm.controller.violation_us": mean(
            "storm.controller.violation", 1e6
        ),
        "storm.controller.fastpath_ratio": ratio(
            extra("fastpath"), extra("wave_sessions")
        ),
        "core.adaptation.adapt_ms": mean("core.adaptation.adapt", 1e3),
        "core.adaptation.failed_ratio": ratio(
            extra("failed_adaptations"), adaptations
        ),
        "telemetry.overhead_share": 1.0 - ratio(armed, bare) if twins else 0.0,
        "telemetry.bare_verdicts_per_s": bare,
        "telemetry.spans_per_verdict": ratio(
            count("telemetry.span"), verdicts
        ),
        "calibration.plan_s": percentile(plan_durations, 0.5),
        "calibration.reservation_step_s": percentile(step_durations, 0.5),
        "bench.verdict_p99_ms": percentile(p99, 0.99),
        "bench.raw_verdicts_per_s": median([
            ratio(r.operations, r.elapsed_s) for r in rounds
        ]),
        "bench.speed_index": median([r.speed for r in rounds]),
        "bench.trace_overhead_share": (
            ratio(traced_per_verdict, untraced_per_verdict) - 1.0
        ),
        "bench.self_time_residual": summary.residual,
    }
    assert set(values) == {m.name for m in schema.PER_LAYER}, (
        set(values) ^ {m.name for m in schema.PER_LAYER}
    )
    return values
