"""Round-based SCAN scheduling of admitted streams.

Within each round the CMFS serves every stream once; ordering the reads
by track position (SCAN) minimises seek distance.  We model track
positions abstractly (a position in [0, 1) per stream) — enough to reproduce the scheduler's two observable
effects: per-round service order and seek-overhead reduction relative to
FCFS, which the E-series ablation benchmark measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
