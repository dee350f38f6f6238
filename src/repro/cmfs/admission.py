"""Admission control for the continuous-media file server.

A new stream is admitted only if, with it added:

1. the disk round inequality still holds (:class:`DiskModel`);
2. the per-stream double buffer fits the buffer pool
   (two rounds of peak-rate data per stream);
3. the server NIC can carry the aggregate peak rate;
4. the configured hard stream limit is respected.

Each rule can be relaxed to build the "no admission control" baseline
used by experiment E7 (the blocking-vs-load comparison needs a server
that accepts everything and then degrades everyone).

All four rules are linear in the admitted rates, so they read a
:class:`ServerLoad` — the stream count and three running totals — and
never the rates themselves.  :meth:`AdmissionController.extended` is
the only place those totals are accumulated: strictly left to right
with ``+`` (never ``sum()``, which CPython >= 3.12 compensates), so a
load extended by one stream is bit for bit the load a fresh pass over
the longer list gives, and :meth:`AdmissionController.decide` is the
only place the rules are written.  :class:`MediaServer` keeps such a
load beside its ledger; ``evaluate`` builds one from the rates it is
handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from ..util.validation import check_positive
from .disk import DiskModel

__all__ = [
    "AdmissionDecision",
    "AdmissionController",
    "ServerLoad",
    "EMPTY_LOAD",
]


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome plus the first limiting resource (for diagnostics and
    the E7/E8 status breakdowns)."""

    admitted: bool
    limiting_resource: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted


# Every admitted stream gets the same answer; the class is frozen, so
# one instance serves them all.
_ADMITTED = AdmissionDecision(True)


class ServerLoad(NamedTuple):
    """What the admission rules read of a set of admitted streams,
    totalled in ledger order."""

    streams: int
    transfer_s: float   # Σ r·R/T: disk transfer time per round
    buffer_bits: float  # Σ 2·r·R: double buffers
    rate_bps: float     # Σ r: aggregate peak rate on the NIC

    def busy_s(self, disk: DiskModel) -> float:
        """Left side of the round inequality: transfer plus one
        positioning overhead per stream."""
        return self.transfer_s + self.streams * disk.overhead_s


EMPTY_LOAD = ServerLoad(0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class AdmissionController:
    """Evaluates the four admission rules against server state."""

    disk: DiskModel
    buffer_bits: float = 512_000_000.0   # 64 MB buffer pool
    nic_bps: float = 155_000_000.0       # OC-3 ATM interface
    max_streams: int = 64
    enforce_disk: bool = True
    enforce_buffer: bool = True
    enforce_nic: bool = True

    def __post_init__(self) -> None:
        check_positive(self.buffer_bits, "buffer_bits")
        check_positive(self.nic_bps, "nic_bps")
        check_positive(self.max_streams, "max_streams")

    def extended(
        self, load: ServerLoad, rates_bps: Iterable[float]
    ) -> ServerLoad:
        """``load`` with ``rates_bps`` appended, one ``+`` per stream
        per total in the order given."""
        round_s = self.disk.round_s
        transfer_rate_bps = self.disk.transfer_rate_bps
        streams, transfer_s, buffer_bits, rate_bps = load
        for rate in rates_bps:
            streams += 1
            transfer_s += rate * round_s / transfer_rate_bps
            buffer_bits += 2.0 * rate * round_s  # filled + drained buffer
            rate_bps += rate
        return ServerLoad(streams, transfer_s, buffer_bits, rate_bps)

    def decide(self, load: ServerLoad) -> AdmissionDecision:
        """The four rules on ``load``, which already counts the stream
        asking to be admitted."""
        if load.streams > self.max_streams:
            return AdmissionDecision(
                False, "streams",
                f"stream limit {self.max_streams} reached",
            )

        if self.enforce_disk:
            busy_s, round_s = load.busy_s(self.disk), self.disk.round_s
            if busy_s > round_s + 1e-12:
                return AdmissionDecision(
                    False, "disk",
                    f"round busy {busy_s * 1e3:.1f} ms exceeds "
                    f"{round_s * 1e3:.1f} ms",
                )

        if self.enforce_buffer and load.buffer_bits > self.buffer_bits:
            return AdmissionDecision(
                False, "buffer",
                f"buffer demand {load.buffer_bits / 8e6:.1f} MB exceeds "
                f"{self.buffer_bits / 8e6:.1f} MB",
            )

        if self.enforce_nic and load.rate_bps > self.nic_bps:
            return AdmissionDecision(
                False, "nic",
                f"aggregate {load.rate_bps / 1e6:.1f} Mbps exceeds NIC "
                f"{self.nic_bps / 1e6:.1f} Mbps",
            )

        return _ADMITTED

    def evaluate(
        self,
        existing_rates_bps: Iterable[float],
        new_rate_bps: float,
    ) -> AdmissionDecision:
        check_positive(new_rate_bps, "new_rate_bps")
        held = self.extended(EMPTY_LOAD, existing_rates_bps)
        return self.decide(self.extended(held, (new_rate_bps,)))

    def headroom(self, existing_rates_bps: Iterable[float]) -> float:
        """Largest additional peak rate admissible right now (bps),
        by bisection over the admission test."""
        held = self.extended(EMPTY_LOAD, existing_rates_bps)

        def admits(rate_bps: float) -> bool:
            return self.decide(self.extended(held, (rate_bps,))).admitted

        lo, hi = 0.0, self.nic_bps
        if not admits(max(hi, 1.0)):
            # bisect only when the top is infeasible; otherwise hi is it
            for _ in range(48):
                mid = (lo + hi) / 2.0
                if mid <= 0.0:
                    break
                if admits(mid):
                    lo = mid
                else:
                    hi = mid
            return lo
        return hi
