"""Circuit breaker: quarantine, recovery, half-open probes."""

import pytest

from repro.faults import BreakerState, CircuitBreaker
from repro.util.errors import ValidationError


@pytest.fixture
def breaker():
    return CircuitBreaker(failure_threshold=3, recovery_time_s=30.0)


class TestTripping:
    def test_starts_closed(self, breaker):
        assert breaker.state("server-a", now=0.0) is BreakerState.CLOSED
        assert breaker.allow("server-a", now=0.0)

    def test_opens_after_threshold_consecutive_failures(self, breaker):
        for _ in range(2):
            breaker.record_failure("server-a", now=0.0)
        assert breaker.allow("server-a", now=0.0)
        breaker.record_failure("server-a", now=0.0)
        assert not breaker.allow("server-a", now=1.0)
        assert breaker.opens == 1

    def test_success_resets_the_count(self, breaker):
        breaker.record_failure("server-a", now=0.0)
        breaker.record_failure("server-a", now=0.0)
        breaker.record_success("server-a", now=0.0)
        breaker.record_failure("server-a", now=0.0)
        breaker.record_failure("server-a", now=0.0)
        assert breaker.allow("server-a", now=0.0)

    def test_servers_are_independent(self, breaker):
        for _ in range(3):
            breaker.record_failure("server-a", now=0.0)
        assert not breaker.allow("server-a", now=1.0)
        assert breaker.allow("server-b", now=1.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(failure_threshold=0)


class TestRecovery:
    def _trip(self, breaker, server_id="server-a", now=0.0):
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(server_id, now=now)

    def test_half_open_probe_after_recovery_window(self, breaker):
        self._trip(breaker)
        assert not breaker.allow("server-a", now=29.0)
        # Window elapsed: the breaker half-opens and admits one probe.
        assert breaker.allow("server-a", now=30.0)
        assert breaker.state("server-a", now=30.0) is BreakerState.HALF_OPEN

    def test_probe_success_closes(self, breaker):
        self._trip(breaker)
        assert breaker.allow("server-a", now=31.0)
        breaker.record_success("server-a", now=31.0)
        assert breaker.state("server-a", now=31.0) is BreakerState.CLOSED

    def test_probe_failure_reopens_for_a_fresh_window(self, breaker):
        self._trip(breaker)
        assert breaker.allow("server-a", now=31.0)
        breaker.record_failure("server-a", now=31.0)
        assert not breaker.allow("server-a", now=32.0)
        assert not breaker.allow("server-a", now=60.0)  # old deadline moot
        assert breaker.allow("server-a", now=61.0)
        assert breaker.opens == 2

    def test_earliest_reopen(self, breaker):
        assert breaker.earliest_reopen(now=0.0) is None
        self._trip(breaker, "server-a", now=10.0)
        self._trip(breaker, "server-b", now=20.0)
        assert breaker.earliest_reopen(now=15.0) == 40.0
