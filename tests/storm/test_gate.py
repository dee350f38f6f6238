"""The admission gate: token bucket, retry queue, honest shedding."""

import pytest

from repro.core.negotiation import NegotiationResult
from repro.core.status import NegotiationStatus
from repro.session import EventLoop
from repro.storm import AdmissionGate, GatePolicy, TokenBucket
from repro.util.clock import ManualClock
from repro.util.errors import ValidationError


def succeeded():
    return NegotiationResult(status=NegotiationStatus.SUCCEEDED)


def try_later(hint=None):
    return NegotiationResult(
        status=NegotiationStatus.FAILED_TRY_LATER, retry_after_s=hint
    )


class Collector:
    """Record every delivery with its simulated timestamp."""

    def __init__(self, loop):
        self.loop = loop
        self.results = []

    def __call__(self, result):
        self.results.append((self.loop.now, result))

    @property
    def statuses(self):
        return [result.status for _, result in self.results]


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(2.0, 3)
        assert bucket.tokens == 3.0
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)

    def test_refills_at_rate_capped_at_burst(self):
        bucket = TokenBucket(2.0, 3)
        for _ in range(3):
            bucket.try_take(0.0)
        assert not bucket.try_take(0.4)   # 0.8 tokens accrued
        assert bucket.try_take(0.5)        # 1.0 token at t=0.5
        assert bucket.try_take(100.0)      # refill caps at burst
        assert bucket.tokens == pytest.approx(2.0)

    def test_time_until_token(self):
        bucket = TokenBucket(4.0, 1)
        assert bucket.time_until_token(0.0) == 0.0
        bucket.try_take(0.0)
        assert bucket.time_until_token(0.0) == pytest.approx(0.25)

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(1.0, 1)
        bucket.try_take(10.0)
        # An earlier timestamp must not un-spend the refill stamp.
        assert bucket.time_until_token(5.0) == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            TokenBucket(0.0, 1)
        with pytest.raises(ValidationError):
            TokenBucket(1.0, 0)


class TestGatePolicy:
    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            GatePolicy(rate_per_s=0.0)
        with pytest.raises(ValidationError):
            GatePolicy(burst=0)
        with pytest.raises(ValidationError):
            GatePolicy(queue_limit=-1)
        with pytest.raises(ValidationError):
            GatePolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            GatePolicy(min_retry_delay_s=-1.0)


def tight_policy(**overrides):
    """One token, one queue slot, no jitter: every decision is forced."""
    defaults = dict(
        rate_per_s=1.0, burst=1, queue_limit=1, retry_limit=0, jitter=0.0,
    )
    defaults.update(overrides)
    return GatePolicy(**defaults)


class TestGateDecisions:
    def test_admit_queue_shed(self, loop):
        gate = AdmissionGate(loop, policy=tight_policy(), seed=3)
        sink = Collector(loop)
        for _ in range(3):
            gate.submit(succeeded, sink)
        # Token paid the first, the second parked, the third found the
        # queue full and was shed immediately with a synthetic verdict.
        assert gate.stats.admitted == 1
        assert gate.stats.queued == 1
        assert gate.stats.shed == 1
        assert sink.statuses == [
            NegotiationStatus.SUCCEEDED,
            NegotiationStatus.FAILED_TRY_LATER,
        ]
        loop.run()
        # The parked request redispatched once a token freed.
        assert gate.stats.redispatched == 1
        assert sink.statuses[-1] is NegotiationStatus.SUCCEEDED
        assert gate.queue_depth == 0

    def test_shed_hint_is_honest(self, loop):
        gate = AdmissionGate(loop, policy=tight_policy(), seed=3)
        sink = Collector(loop)
        for _ in range(3):
            gate.submit(succeeded, sink)
        _, shed_verdict = sink.results[-1]
        # One token short (1s at 1/s) plus one queued request ahead
        # (another 1s of refill): resubmitting before ~2s is pointless.
        assert shed_verdict.retry_after_s == pytest.approx(2.0)

    def test_passthrough_mode_runs_inline(self, loop):
        gate = AdmissionGate(
            loop, policy=tight_policy(), seed=3, enabled=False
        )
        sink = Collector(loop)
        for _ in range(5):
            gate.submit(succeeded, sink)
        # No gating at all: every attempt ran synchronously.
        assert gate.stats.admitted == 5
        assert gate.stats.queued == 0
        assert gate.stats.shed == 0
        assert len(sink.results) == 5
        assert gate.queue_depth == 0


class TestTryLaterRequeue:
    def test_honours_managers_hint(self, loop):
        calls = []

        def flaky():
            calls.append(loop.now)
            return try_later(hint=5.0) if len(calls) == 1 else succeeded()

        gate = AdmissionGate(
            loop, policy=tight_policy(retry_limit=2, queue_limit=4), seed=3
        )
        sink = Collector(loop)
        gate.submit(flaky, sink)
        assert sink.results == []  # parked on the hint, not delivered
        loop.run()
        assert gate.stats.requeued_try_later == 1
        assert sink.statuses == [NegotiationStatus.SUCCEEDED]
        # The retry waited out the manager's own retry_after_s hint.
        assert calls[1] - calls[0] >= 5.0 - 1e-9

    def test_budget_exhaustion_passes_failure_through(self, loop):
        gate = AdmissionGate(
            loop, policy=tight_policy(retry_limit=2, queue_limit=4), seed=3
        )
        sink = Collector(loop)
        gate.submit(lambda: try_later(hint=1.0), sink)
        loop.run()
        assert gate.stats.requeued_try_later == 2
        assert sink.statuses == [NegotiationStatus.FAILED_TRY_LATER]
        # The delivered verdict is the manager's own, hint included.
        assert sink.results[0][1].retry_after_s == pytest.approx(1.0)

    def test_zero_retry_limit_delivers_first_verdict(self, loop):
        gate = AdmissionGate(loop, policy=tight_policy(), seed=3)
        sink = Collector(loop)
        gate.submit(lambda: try_later(hint=9.0), sink)
        assert sink.statuses == [NegotiationStatus.FAILED_TRY_LATER]
        assert gate.stats.requeued_try_later == 0


class TestDeterminism:
    def _run_once(self, seed):
        clock = ManualClock()
        loop = EventLoop(clock)
        policy = GatePolicy(
            rate_per_s=1.0, burst=2, queue_limit=8, retry_limit=1,
            jitter=0.3,
        )
        gate = AdmissionGate(loop, policy=policy, seed=seed)
        sink = Collector(loop)
        for i in range(6):
            loop.at(i * 0.1, lambda: gate.submit(succeeded, sink))
        loop.run()
        return [
            (now, str(result.status)) for now, result in sink.results
        ]

    def test_same_seed_same_schedule(self):
        assert self._run_once(11) == self._run_once(11)

    def test_jitter_spreads_across_seeds(self):
        # Different seeds must de-synchronize the retry herd.
        assert self._run_once(11) != self._run_once(12)


class TestMonotoneHints:
    """When the gate and the manager both produce retry hints for one
    refusal, the surfaced hint is the max — a client resubmitting any
    earlier is guaranteed to fail again."""

    def test_shed_after_requeue_surfaces_the_managers_larger_hint(
        self, loop
    ):
        gate = AdmissionGate(
            loop,
            policy=tight_policy(retry_limit=3, queue_limit=0),
            seed=3,
        )
        sink = Collector(loop)
        gate.submit(lambda: try_later(hint=30.0), sink)
        loop.run()
        # The FAILEDTRYLATER verdict tried to requeue, found the queue
        # full, and was shed — but the manager already said "not before
        # 30 s", which dominates the gate's own token-refill hint.
        assert gate.stats.shed == 1
        assert sink.statuses == [NegotiationStatus.FAILED_TRY_LATER]
        assert sink.results[-1][1].retry_after_s == pytest.approx(30.0)

    def test_shed_hint_never_shrinks_below_the_gates_own(self, loop):
        gate = AdmissionGate(
            loop,
            policy=tight_policy(retry_limit=3, queue_limit=0),
            seed=3,
        )
        sink = Collector(loop)
        gate.submit(lambda: try_later(hint=0.01), sink)
        loop.run()
        # A tiny manager hint must not override the gate's knowledge
        # that no token frees for ~1 s.
        hint = sink.results[-1][1].retry_after_s
        assert hint is not None
        assert hint >= 1.0 - 1e-9

    def test_terminal_passthrough_keeps_the_largest_hint_seen(self, loop):
        hints = iter([20.0, 0.5, 0.5])

        def shrinking():
            return try_later(hint=next(hints))

        gate = AdmissionGate(
            loop,
            policy=tight_policy(retry_limit=2, queue_limit=4),
            seed=3,
        )
        sink = Collector(loop)
        gate.submit(shrinking, sink)
        loop.run()
        # Retries exhausted: the last verdict passes through, but its
        # 0.5 s hint would contradict the 20 s the manager demanded two
        # attempts ago — the max wins.
        assert gate.stats.requeued_try_later == 2
        assert sink.statuses == [NegotiationStatus.FAILED_TRY_LATER]
        assert sink.results[-1][1].retry_after_s >= 20.0 - 1e-9


class TestSubmitDeferred:
    """The deferred path: the gate decides *when* a negotiation task
    starts, and the task reports its verdict through a callback instead
    of a synchronous return."""

    def test_admitted_start_is_called_and_verdict_flows_through(
        self, loop
    ):
        gate = AdmissionGate(loop, policy=tight_policy(), seed=3)
        sink = Collector(loop)
        started = []

        def start(done):
            started.append(loop.now)
            loop.after(0.5, lambda: done(succeeded()))

        gate.submit_deferred(start, sink)
        assert started == [0.0]
        assert sink.results == []  # verdict not in yet
        loop.run()
        assert sink.statuses == [NegotiationStatus.SUCCEEDED]
        assert gate.stats.delivered == 1

    def test_shed_request_never_starts(self, loop):
        gate = AdmissionGate(
            loop, policy=tight_policy(queue_limit=0), seed=3
        )
        sink = Collector(loop)
        started = []

        def start(done):
            started.append(loop.now)
            done(succeeded())

        gate.submit_deferred(start, sink)
        gate.submit_deferred(start, sink)
        # One token: r1 started, r2 was shed without ever starting.
        assert started == [0.0]
        assert gate.stats.shed == 1
        assert sink.statuses[-1] is NegotiationStatus.FAILED_TRY_LATER

    def test_deferred_try_later_requeues_and_restarts(self, loop):
        gate = AdmissionGate(
            loop,
            policy=tight_policy(retry_limit=2, queue_limit=4),
            seed=3,
        )
        sink = Collector(loop)
        starts = []

        def start(done):
            starts.append(loop.now)
            done(
                try_later(hint=2.0) if len(starts) == 1 else succeeded()
            )

        gate.submit_deferred(start, sink)
        loop.run()
        assert len(starts) == 2
        assert starts[1] - starts[0] >= 2.0 - 1e-9
        assert sink.statuses == [NegotiationStatus.SUCCEEDED]

    def test_passthrough_mode_starts_inline(self, loop):
        gate = AdmissionGate(
            loop, policy=tight_policy(), seed=3, enabled=False
        )
        sink = Collector(loop)
        started = []
        gate.submit_deferred(
            lambda done: (started.append(loop.now), done(succeeded()))[0],
            sink,
        )
        assert started == [0.0]
        assert sink.statuses == [NegotiationStatus.SUCCEEDED]
