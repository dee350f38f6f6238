"""Round-based SCAN scheduling of admitted streams.

Within each round the CMFS serves every stream once; ordering the reads
by track position (SCAN) minimises seek distance.  We model track
positions abstractly (a position in [0, 1) per stream, advancing as the
file is consumed) — enough to reproduce the scheduler's two observable
effects: per-round service order and seek-overhead reduction relative to
FCFS, which the E-series ablation benchmark measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..util.errors import ServerError
from ..util.validation import check_fraction, check_positive
from .disk import DiskModel

__all__ = ["SchedulingPolicy", "StreamState", "RoundPlan", "RoundScheduler"]


class SchedulingPolicy(enum.Enum):
    FCFS = "fcfs"
    SCAN = "scan"


@dataclass(slots=True)
class StreamState:
    """Scheduler-side state of one admitted stream."""

    stream_id: str
    rate_bps: float
    track_position: float = 0.0  # abstract head position in [0, 1)
    blocks_served: int = 0

    def __post_init__(self) -> None:
        check_positive(self.rate_bps, "rate_bps")
        check_fraction(self.track_position, "track_position")


@dataclass(frozen=True, slots=True)
class RoundPlan:
    """One round's service order and timing."""

    order: tuple[str, ...]
    seek_cost: float           # abstract total head travel in [0, n]
    busy_s: float
    feasible: bool


class RoundScheduler:
    """Plans service rounds over the currently admitted streams."""

    def __init__(
        self,
        disk: DiskModel,
        policy: SchedulingPolicy = SchedulingPolicy.SCAN,
    ) -> None:
        self.disk = disk
        self.policy = policy
        self._streams: dict[str, StreamState] = {}

    # -- stream management ------------------------------------------------------

    def add_stream(self, stream_id: str, rate_bps: float, track_position: float = 0.0) -> None:
        if stream_id in self._streams:
            raise ServerError(f"stream {stream_id!r} already scheduled")
        self._streams[stream_id] = StreamState(
            stream_id=stream_id, rate_bps=rate_bps, track_position=track_position
        )

    def remove_stream(self, stream_id: str) -> None:
        if self._streams.pop(stream_id, None) is None:
            raise ServerError(f"no stream {stream_id!r}")

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    def rates(self) -> tuple[float, ...]:
        return tuple(s.rate_bps for s in self._streams.values())

    # -- planning -------------------------------------------------------------------

    def plan_round(self) -> RoundPlan:
        """Compute the service order and seek cost for the next round."""
        streams = list(self._streams.values())
        if self.policy is SchedulingPolicy.SCAN:
            streams.sort(key=lambda s: s.track_position)
        feasibility = self.disk.round_feasibility(s.rate_bps for s in streams)
        seek_cost = self._seek_cost(streams)
        return RoundPlan(
            order=tuple(s.stream_id for s in streams),
            seek_cost=seek_cost,
            busy_s=feasibility.busy_s,
            feasible=feasibility.feasible,
        )

    @staticmethod
    def _seek_cost(streams: "list[StreamState]") -> float:
        """Total abstract head travel when serving in the given order,
        starting from position 0."""
        position = 0.0
        travel = 0.0
        for stream in streams:
            travel += abs(stream.track_position - position)
            position = stream.track_position
        return travel

    def execute_round(self, rng: "np.random.Generator | None" = None) -> RoundPlan:
        """Plan the round and advance stream head positions.

        Positions drift as files are consumed; with an RNG provided the
        drift is jittered (VBR block placement), otherwise deterministic.
        """
        plan = self.plan_round()
        for stream in self._streams.values():
            drift = 0.02
            if rng is not None:
                drift *= float(rng.uniform(0.5, 1.5))
            stream.track_position = (stream.track_position + drift) % 1.0
            stream.blocks_served += 1
        return plan
