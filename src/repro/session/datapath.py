"""Data-path simulation: disk rounds → client playout buffers.

The reservation machinery guarantees *rates*; whether the user actually
sees smooth playout depends on the round-by-round data path: each
service round the disk reads every stream's next blocks (VBR — the
per-round demand fluctuates around the average), the network delivers
them, and the client's playout buffer drains at the consumption rate.
An infeasible round (aggregate demand above the round budget) slows
every stream proportionally; buffers underrun; the user sees a stall.

This module simulates exactly that pipeline for the streams of one
server, turning the E15 admission ablation's abstract "deadline
VIOLATED" into measured stall seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cmfs.disk import DiskModel
from ..util.errors import SimulationError
from ..util.rng import RngLike, make_rng
from ..util.validation import check_non_negative, check_positive

__all__ = ["StreamDemand", "DataPathReport", "simulate_rounds"]

VBR_SPREAD = 0.5  # a round's demand is uniform in avg x [1 - 0.5, 1 + 0.5]


@dataclass(frozen=True, slots=True)
class StreamDemand:
    """One continuous stream's data-path parameters."""

    stream_id: str
    avg_bps: float
    max_bps: float
    prebuffer_s: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.avg_bps, "avg_bps")
        check_positive(self.max_bps, "max_bps")
        check_non_negative(self.prebuffer_s, "prebuffer_s")
        if self.max_bps < self.avg_bps:
            raise SimulationError(
                f"stream {self.stream_id!r}: max_bps below avg_bps"
            )


@dataclass(slots=True)
class DataPathReport:
    """Per-stream outcome of one simulation."""

    stream_id: str
    delivered_bits: float = 0.0
    consumed_bits: float = 0.0
    stall_s: float = 0.0
    buffer_peak_bits: float = 0.0
    infeasible_rounds: int = 0


def simulate_rounds(
    disk: DiskModel,
    demands: "list[StreamDemand]",
    duration_s: float,
    *,
    rng: RngLike = None,
) -> "dict[str, DataPathReport]":
    """Simulate ``duration_s`` of service rounds for ``demands``.

    Per round, each stream needs a VBR-fluctuating amount of data
    (uniform in ``avg × [1−VBR_SPREAD, 1+VBR_SPREAD]``, capped at its
    peak rate).  If the round's total work exceeds the round budget every
    stream's delivery is scaled down proportionally — the disk has no
    spare time to catch up, which is exactly why admission control
    matters.  Playout starts once the prebuffer is filled; a drained
    buffer stalls the presentation until data arrives.
    """
    check_positive(duration_s, "duration_s")
    if not demands:
        raise SimulationError("need at least one stream")
    rng = make_rng(rng)
    round_s = disk.round_s
    rounds = max(int(round(duration_s / round_s)), 1)

    from collections import deque

    reports = {d.stream_id: DataPathReport(d.stream_id) for d in demands}
    buffers = {d.stream_id: 0.0 for d in demands}
    # Content sizes delivered but not yet played (the playout consumes
    # the *same* VBR bits that were fetched, buffer-delayed).
    queued: dict[str, deque] = {d.stream_id: deque() for d in demands}
    playing = {d.stream_id: False for d in demands}
    prebuffer_rounds = {
        d.stream_id: max(int(round(d.prebuffer_s / round_s)), 1)
        for d in demands
    }

    for _ in range(rounds):
        # Per-stream content size for this round (the VBR draw).
        needs: dict[str, float] = {}
        for demand in demands:
            factor = float(rng.uniform(1.0 - VBR_SPREAD, 1.0 + VBR_SPREAD))
            bits = min(
                demand.avg_bps * round_s * factor, demand.max_bps * round_s
            )
            needs[demand.stream_id] = bits
        # Round feasibility with the actual bits: an overloaded round
        # slows every stream's delivery proportionally.
        transfer_s = sum(needs.values()) / disk.transfer_rate_bps
        busy = transfer_s + len(demands) * disk.overhead_s
        scale = min(1.0, round_s / busy) if busy > 0 else 1.0
        infeasible = busy > round_s + 1e-12

        for demand in demands:
            sid = demand.stream_id
            report = reports[sid]
            delivered = needs[sid] * scale
            report.delivered_bits += delivered
            if infeasible:
                report.infeasible_rounds += 1
            buffers[sid] += delivered
            queued[sid].append(needs[sid])
            report.buffer_peak_bits = max(report.buffer_peak_bits, buffers[sid])

            if not playing[sid]:
                if len(queued[sid]) >= prebuffer_rounds[sid]:
                    playing[sid] = True
                continue
            # Play the oldest queued content round; the bits needed are
            # that round's own VBR size.
            if not queued[sid]:
                continue
            want = queued[sid].popleft()
            have = buffers[sid]
            if have >= want - 1e-9:
                buffers[sid] = have - want
                report.consumed_bits += want
            else:
                # Partial round: the shortfall is visible stall time.
                report.consumed_bits += have
                shortfall = want - have
                report.stall_s += shortfall / demand.avg_bps
                buffers[sid] = 0.0
    return reports
