"""Spatial and temporal synchronization constraints (paper §2, Fig. 1).

Figure 1's OMT model gives a multimedia document "attributes which
consist of spatial and temporal synchronization constraints".  The paper
delegates their enforcement to the U. Ottawa synchronization component
[Lam 94]; the negotiation procedure only needs the constraints to be
*representable* (they travel with the document) and *consistent* (a
malformed document is rejected before negotiation starts).

We model temporal constraints as a small fragment of interval relations
— enough to describe a news article (video parallel with audio, text
sequential after, image overlapping) — and spatial constraints as screen
regions for the visual monomedia.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import networkx as nx

from ..util.errors import SynchronizationError
from ..util.validation import check_non_negative, check_positive

__all__ = [
    "TemporalRelationKind",
    "TemporalRelation",
    "ScreenRegion",
    "SpatialLayout",
    "SyncConstraints",
]


class TemporalRelationKind(enum.Enum):
    """Supported interval relations between two monomedia."""

    PARALLEL = "parallel"      # a and b start together
    SEQUENTIAL = "sequential"  # b starts when a ends (plus offset)
    OVERLAPS = "overlaps"      # b starts `offset` seconds into a


@dataclass(frozen=True, slots=True)
class TemporalRelation:
    """``first`` relates to ``second`` with an optional start offset."""

    kind: TemporalRelationKind
    first: str
    second: str
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise SynchronizationError(
                f"monomedia {self.first!r} cannot be synchronized with itself"
            )
        check_non_negative(self.offset_s, "offset_s")
        if self.kind is TemporalRelationKind.PARALLEL and self.offset_s:
            raise SynchronizationError("parallel relations take no offset")


@dataclass(frozen=True, slots=True)
class ScreenRegion:
    """A rectangle in abstract screen coordinates (pixels)."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        check_non_negative(self.x, "x")
        check_non_negative(self.y, "y")
        check_positive(self.width, "width")
        check_positive(self.height, "height")

    @property
    def right(self) -> int:
        return self.x + self.width

    @property
    def bottom(self) -> int:
        return self.y + self.height

    def overlaps(self, other: "ScreenRegion") -> bool:
        return not (
            self.right <= other.x
            or other.right <= self.x
            or self.bottom <= other.y
            or other.bottom <= self.y
        )


@dataclass(frozen=True, slots=True)
class SpatialLayout:
    """Screen regions keyed by monomedia id.

    Overlapping regions are rejected — the presentational applications
    the paper targets tile the screen (news window, caption, photo).
    """

    regions: Mapping[str, ScreenRegion]

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", dict(self.regions))
        items = list(self.regions.items())
        for i, (name_a, region_a) in enumerate(items):
            for name_b, region_b in items[i + 1:]:
                if region_a.overlaps(region_b):
                    raise SynchronizationError(
                        f"regions of {name_a!r} and {name_b!r} overlap"
                    )

    def bounding_box(self) -> tuple[int, int]:
        """(width, height) needed to display every region — compared
        against the client screen in the §4 step-1 local negotiation."""
        if not self.regions:
            return (0, 0)
        return (
            max(region.right for region in self.regions.values()),
            max(region.bottom for region in self.regions.values()),
        )


@dataclass(frozen=True, slots=True)
class SyncConstraints:
    """The synchronization attributes of a multimedia document."""

    temporal: tuple[TemporalRelation, ...] = ()
    spatial: SpatialLayout | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "temporal", tuple(self.temporal))

    def validate_against(self, monomedia_ids: Iterable[str]) -> None:
        """Check every referenced monomedia exists and the sequential
        relations are acyclic (a document where A follows B follows A
        can never be scheduled)."""
        known = set(monomedia_ids)
        graph = nx.DiGraph()
        for relation in self.temporal:
            for endpoint in (relation.first, relation.second):
                if endpoint not in known:
                    raise SynchronizationError(
                        f"temporal relation references unknown monomedia "
                        f"{endpoint!r}"
                    )
            if relation.kind is not TemporalRelationKind.PARALLEL:
                graph.add_edge(relation.first, relation.second)
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise SynchronizationError(
                f"temporal ordering contains a cycle: {cycle}"
            )
        if self.spatial is not None:
            for name in self.spatial.regions:
                if name not in known:
                    raise SynchronizationError(
                        f"spatial layout references unknown monomedia {name!r}"
                    )

    def start_times(
        self, durations: Mapping[str, float]
    ) -> dict[str, float]:
        """Resolve the start time of every monomedia from the relations.

        Unconstrained monomedia start at 0.  Used by the playout engine
        to schedule stream starts and by the cost model to report the
        presentation span.
        """
        starts: dict[str, float] = {name: 0.0 for name in durations}
        # Iterate to a fixed point; the relation graph is a DAG so at
        # most len(temporal) passes are needed.
        for _ in range(len(self.temporal) + 1):
            changed = False
            for relation in self.temporal:
                first_start = starts[relation.first]
                if relation.kind is TemporalRelationKind.PARALLEL:
                    target = first_start
                elif relation.kind is TemporalRelationKind.SEQUENTIAL:
                    target = (
                        first_start
                        + durations[relation.first]
                        + relation.offset_s
                    )
                else:  # OVERLAPS
                    target = first_start + relation.offset_s
                if starts[relation.second] < target:
                    starts[relation.second] = target
                    changed = True
            if not changed:
                break
        return starts
