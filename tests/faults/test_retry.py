"""Retry policy: backoff arithmetic and the retry loop."""

import pytest

from repro.faults import RetryPolicy, execute_with_retry, is_retryable
from repro.util.errors import (
    AdmissionError,
    CapacityError,
    FaultTimeoutError,
    ServerCrashedError,
    TransientFaultError,
    ValidationError,
)
from repro.util.rng import make_rng


class TestRetryable:
    def test_transient_faults_are_retryable(self):
        assert is_retryable(TransientFaultError("x"))
        assert is_retryable(FaultTimeoutError("x"))
        assert is_retryable(ServerCrashedError("x"))

    def test_deterministic_refusals_are_not(self):
        # Backoff cannot create capacity: the walk should move to the
        # next offer instead of retrying these.
        assert not is_retryable(AdmissionError("x"))
        assert not is_retryable(CapacityError("x"))
        assert not is_retryable(ValueError("x"))


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay_s=0.5, multiplier=2.0, jitter=0.0)
        assert policy.backoff_delay(1) == 0.5
        assert policy.backoff_delay(2) == 1.0
        assert policy.backoff_delay(3) == 2.0

    def test_cap(self):
        policy = RetryPolicy(
            base_delay_s=1.0, multiplier=10.0, max_delay_s=5.0, jitter=0.0
        )
        assert policy.backoff_delay(4) == 5.0

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(jitter=0.2)
        a = [policy.backoff_delay(n, make_rng(7)) for n in (1, 2, 3)]
        b = [policy.backoff_delay(n, make_rng(7)) for n in (1, 2, 3)]
        assert a == b

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.1)
        rng = make_rng(11)
        for _ in range(200):
            delay = policy.backoff_delay(1, rng)
            assert 0.9 - 1e-9 <= delay <= 1.1 + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(deadline_s=0.0)

    def test_backoff_requires_valid_attempt(self):
        with pytest.raises(ValidationError):
            RetryPolicy().backoff_delay(0)


class TestExecuteWithRetry:
    def _flaky(self, failures, error=TransientFaultError):
        """A callable that fails ``failures`` times, then returns 42."""
        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] <= failures:
                raise error(f"flake {state['calls']}")
            return 42

        return fn, state

    def test_succeeds_after_transient_failures(self):
        fn, state = self._flaky(2)
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        assert execute_with_retry(fn, policy) == 42
        assert state["calls"] == 3

    def test_attempts_exhausted_reraises_original(self):
        fn, state = self._flaky(10)
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(TransientFaultError, match="flake 3"):
            execute_with_retry(fn, policy)
        assert state["calls"] == 3

    def test_non_retryable_raises_immediately(self):
        fn, state = self._flaky(10, error=AdmissionError)
        with pytest.raises(AdmissionError, match="flake 1"):
            execute_with_retry(fn, RetryPolicy(max_attempts=5))
        assert state["calls"] == 1

    def test_deadline_bounds_accumulated_backoff(self):
        fn, state = self._flaky(10)
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=4.0, multiplier=1.0,
            jitter=0.0, deadline_s=10.0,
        )
        # 4s + 4s fits in 10s; the third backoff (12s total) does not.
        with pytest.raises(TransientFaultError, match="flake 3"):
            execute_with_retry(fn, policy)
        assert state["calls"] == 3

    def test_on_retry_reports_each_backoff(self):
        fn, _ = self._flaky(2)
        seen = []
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        execute_with_retry(
            fn, policy,
            on_retry=lambda attempt, error, delay: seen.append(
                (attempt, type(error).__name__, delay)
            ),
        )
        assert seen == [
            (1, "TransientFaultError", 0.5),
            (2, "TransientFaultError", 1.0),
        ]
