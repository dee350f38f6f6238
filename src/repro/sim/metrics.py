"""Experiment metrics: blocking, satisfaction, utilization, revenue.

These are the observables the paper argues about qualitatively
("increases the availability of the system and the user satisfaction",
"the cost will limit the greediness of the users", §7/§8) turned into
measurable quantities for the E-series benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.status import NegotiationStatus
from ..session.playout import PlayoutSession
from ..util.errors import ValidationError
from ..util.units import Money

__all__ = ["StatusCounts", "UtilizationIntegral", "RunStats"]


@dataclass(slots=True)
class StatusCounts:
    """Tally of negotiation outcomes."""

    counts: dict = field(default_factory=dict)

    def add(self, status: NegotiationStatus) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def of(self, status: NegotiationStatus) -> int:
        return self.counts.get(status, 0)

    @property
    def succeeded(self) -> int:
        return self.of(NegotiationStatus.SUCCEEDED)

    @property
    def served(self) -> int:
        """Requests that got *some* stream (success or degraded offer)."""
        return self.succeeded + self.of(NegotiationStatus.FAILED_WITH_OFFER)

    @property
    def blocked(self) -> int:
        """Requests that got nothing."""
        return self.total - self.served

    @property
    def blocking_probability(self) -> float:
        return self.blocked / self.total if self.total else 0.0

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        return {status.value: count for status, count in self.counts.items()}


@dataclass(slots=True)
class UtilizationIntegral:
    """Time integral of a reserved-capacity signal.

    Feed it (time, value) samples whenever the signal changes; the mean
    over the window is integral / elapsed.
    """

    last_t: float = 0.0
    last_value: float = 0.0
    integral: float = 0.0
    peak: float = 0.0

    def sample(self, t: float, value: float) -> None:
        if t < self.last_t:
            raise ValidationError(f"time went backwards: {t} < {self.last_t}")
        self.integral += self.last_value * (t - self.last_t)
        self.last_t = t
        self.last_value = value
        self.peak = max(self.peak, value)

    def mean(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 0.0
        # Close the integral at the horizon with the last value held.
        closing = self.integral + self.last_value * max(
            horizon_s - self.last_t, 0.0
        )
        return closing / horizon_s


@dataclass(slots=True)
class RunStats:
    """Everything one workload run reports."""

    statuses: StatusCounts = field(default_factory=StatusCounts)
    revenue: Money = field(default_factory=Money.zero)
    offered: int = 0
    attempts_total: int = 0
    network_utilization: UtilizationIntegral = field(
        default_factory=UtilizationIntegral
    )
    server_utilization: UtilizationIntegral = field(
        default_factory=UtilizationIntegral
    )
    completed_sessions: int = 0
    aborted_sessions: int = 0
    adaptations: int = 0
    failed_adaptations: int = 0
    total_interruption_s: float = 0.0
    total_degraded_s: float = 0.0

    def record_session(self, session: PlayoutSession) -> None:
        record = session.record
        if record.completed:
            self.completed_sessions += 1
        if record.aborted:
            self.aborted_sessions += 1
        self.adaptations += record.adaptations
        self.failed_adaptations += record.failed_adaptations
        self.total_interruption_s += record.total_interruption_s
        self.total_degraded_s += record.degraded_time_s

    @property
    def blocking_probability(self) -> float:
        return self.statuses.blocking_probability

    @property
    def success_rate(self) -> float:
        return self.statuses.success_rate

    @property
    def mean_attempts(self) -> float:
        total = self.statuses.total
        return self.attempts_total / total if total else 0.0

    def summary_row(self, label: str) -> tuple:
        """One row of the standard comparison table."""
        return (
            label,
            self.statuses.total,
            f"{self.success_rate * 100:.1f}%",
            f"{self.blocking_probability * 100:.1f}%",
            str(self.revenue),
            f"{self.mean_attempts:.1f}",
        )

    @staticmethod
    def summary_headers() -> tuple:
        return ("run", "requests", "success", "blocked", "revenue", "attempts")
