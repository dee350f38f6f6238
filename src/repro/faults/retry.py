"""Retry policy: capped exponential backoff with deterministic jitter.

The resource-commitment path wraps each server admission and flow
reservation in :func:`execute_with_retry` so transient faults (injected
refusals, slow-call timeouts, short crash windows) don't immediately
fail an otherwise-committable offer.

All delays are *accounted*, not slept: the simulation runs on a manual
clock and advancing it from inside a commitment would race the event
loop, so backoff time counts against the policy's overall deadline
while the attempts themselves are instantaneous in simulated time.
Jitter draws come from a seeded generator, so a chaos run replays
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from ..util.errors import (
    FaultTimeoutError,
    ServerCrashedError,
    TransientFaultError,
    ValidationError,
)
from ..util.rng import RngLike, make_rng
from ..util.validation import (
    check_at_least,
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = ["RETRYABLE_ERRORS", "is_retryable", "RetryPolicy", "execute_with_retry"]

T = TypeVar("T")

RETRYABLE_ERRORS: tuple[type[Exception], ...] = (
    TransientFaultError,
    FaultTimeoutError,
    ServerCrashedError,
)
"""Errors worth retrying: the same call may succeed a moment later.
Deterministic refusals (capacity, admission-control rejection) are *not*
here — backing off cannot create capacity; the commitment walk moves to
the next offer instead."""


def is_retryable(error: BaseException) -> bool:
    return isinstance(error, RETRYABLE_ERRORS)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``n`` (1-based) waits ``base_delay_s * multiplier**(n-1)``
    before attempt ``n+1``, capped at ``max_delay_s`` and spread by
    ``±jitter`` (a fraction of the delay).  ``attempt_timeout_s`` bounds
    one call (enforced by the fault injector's slow-call threshold);
    ``deadline_s`` bounds the whole retry loop's accumulated backoff.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    max_delay_s: float = 8.0
    multiplier: float = 2.0
    jitter: float = 0.1
    attempt_timeout_s: float = 1.0
    deadline_s: float = 30.0

    def __post_init__(self) -> None:
        # Bare ``<`` comparisons are not enough here: NaN compares False
        # against everything, so a NaN multiplier or attempt count used
        # to slip through and poison every backoff computation.
        check_at_least(self.max_attempts, 1, "max_attempts", integer=True)
        check_non_negative(self.base_delay_s, "base_delay_s")
        check_positive(self.max_delay_s, "max_delay_s")
        check_at_least(self.multiplier, 1.0, "multiplier")
        check_fraction(self.jitter, "jitter")
        check_positive(self.attempt_timeout_s, "attempt_timeout_s")
        check_positive(self.deadline_s, "deadline_s")
        if self.max_delay_s < self.base_delay_s:
            raise ValidationError(
                f"max_delay_s ({self.max_delay_s!r}) must not be below "
                f"base_delay_s ({self.base_delay_s!r})"
            )

    def backoff_delay(
        self, attempt: int, rng: "np.random.Generator | None" = None
    ) -> float:
        """Backoff before the attempt *after* 1-based ``attempt``."""
        if attempt < 1:
            raise ValidationError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return delay


def execute_with_retry(
    fn: "Callable[[], T]",
    policy: RetryPolicy,
    *,
    rng: RngLike = None,
    on_retry: "Callable[[int, BaseException, float], None] | None" = None,
    failed: "Exception | None" = None,
) -> T:
    """Call ``fn`` under ``policy``; return its result or re-raise.

    Retries only :data:`RETRYABLE_ERRORS` (anything else propagates
    from ``fn`` at once), stops when attempts or the backoff deadline
    run out, and reports each retry through
    ``on_retry(attempt, error, delay_s)``.  The final error propagates
    unchanged, so callers' except clauses keep working.

    ``failed`` is the error of a first call the caller already made
    itself: the loop starts at the decision on that failure, so a
    caller whose first call usually succeeds builds nothing for the
    retry until it has to; it must be one of :data:`RETRYABLE_ERRORS`.
    """
    rng = make_rng(rng)
    elapsed = 0.0
    attempt = 1
    error = failed
    while True:
        if error is None:
            try:
                return fn()
            except RETRYABLE_ERRORS as raised:
                error = raised
        if attempt >= policy.max_attempts:
            raise error
        delay = policy.backoff_delay(attempt, rng)
        if elapsed + delay > policy.deadline_s + 1e-12:
            raise error
        elapsed += delay
        if on_retry is not None:
            on_retry(attempt, error, delay)
        attempt += 1
        error = None
