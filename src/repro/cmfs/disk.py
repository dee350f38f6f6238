"""Disk model for the continuous-media file server.

The UBC CMFS [Neu 96] serves variable-bit-rate streams from disk in
fixed-length *rounds*: in each round every admitted stream gets one
contiguous read of its next data.  A round is feasible when the sum of
per-stream transfer times plus per-stream positioning overhead (seek +
rotational latency) fits in the round:

    Σᵢ (rateᵢ · R / transfer_rate)  +  n · (seek + rot)  ≤  R

This single inequality is the entire real-time admission condition the
negotiation needs — it exhibits the right qualitative behaviour: more
streams burn more positioning overhead, faster streams burn transfer
time, and a saturated disk rejects further admissions (FAILEDTRYLATER
pressure in experiment E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..util.errors import ValidationError
from ..util.validation import check_positive

__all__ = ["DiskModel", "RoundFeasibility"]


@dataclass(frozen=True, slots=True)
class RoundFeasibility:
    """Outcome of a round-feasibility evaluation."""

    feasible: bool
    busy_s: float
    round_s: float
    stream_count: int

    @property
    def disk_utilization(self) -> float:
        """Busy share of the round (may exceed 1 when infeasible)."""
        return self.busy_s / self.round_s


@dataclass(frozen=True, slots=True)
class DiskModel:
    """A single mechanical disk of the era (defaults ≈ a mid-90s
    Seagate Barracuda: ~8.5 ms average seek, 7200 rpm, ~60 Mbit/s
    sustained transfer)."""

    transfer_rate_bps: float = 60_000_000.0
    avg_seek_s: float = 0.0085
    rotational_latency_s: float = 0.00417  # half a revolution at 7200 rpm
    round_s: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.transfer_rate_bps, "transfer_rate_bps")
        check_positive(self.avg_seek_s, "avg_seek_s")
        check_positive(self.rotational_latency_s, "rotational_latency_s")
        check_positive(self.round_s, "round_s")
        if self.overhead_s >= self.round_s:
            raise ValidationError(
                "positioning overhead exceeds the round length; "
                "no stream could ever be admitted"
            )

    @property
    def overhead_s(self) -> float:
        """Positioning overhead charged per stream per round."""
        return self.avg_seek_s + self.rotational_latency_s

    def round_feasibility(self, stream_rates_bps: Iterable[float]) -> RoundFeasibility:
        """Evaluate the round inequality for the given admitted rates."""
        rates = list(stream_rates_bps)
        transfer_s = sum(r * self.round_s / self.transfer_rate_bps for r in rates)
        busy = transfer_s + len(rates) * self.overhead_s
        return RoundFeasibility(
            feasible=busy <= self.round_s + 1e-12,
            busy_s=busy,
            round_s=self.round_s,
            stream_count=len(rates),
        )

    def can_admit(
        self, existing_rates_bps: Iterable[float], new_rate_bps: float
    ) -> bool:
        """Would the round stay feasible with one more stream?"""
        check_positive(new_rate_bps, "new_rate_bps")
        rates = list(existing_rates_bps)
        rates.append(new_rate_bps)
        return self.round_feasibility(rates).feasible

    def max_streams_at_rate(self, rate_bps: float) -> int:
        """How many identical streams of ``rate_bps`` one disk sustains
        (closed form of the round inequality)."""
        check_positive(rate_bps, "rate_bps")
        per_stream = (
            rate_bps * self.round_s / self.transfer_rate_bps + self.overhead_s
        )
        return int(self.round_s / per_stream)
