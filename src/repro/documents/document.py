"""Multimedia documents (paper §2, Figure 1).

Figure 1: "a document is either a monomedia or a multimedia, and ... a
multimedia is composed of one or more monomedia (aggregation links), and
has attributes which consist of spatial and temporal synchronization
constraints."  We realise both shapes with one class — a document owns
one or more monomedia plus sync constraints; the monomedia case is the
single-component degenerate form (``is_monomedia``).

``copyright_cost`` is the per-document ``CostCop`` term of Eq. 1 (§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..util.errors import DocumentError
from ..util.units import Money, dollars
from ..util.validation import check_name, check_non_empty
from .media import Medium
from .monomedia import Monomedia, Variant
from .synchronization import SyncConstraints

__all__ = ["Document"]


@dataclass(frozen=True, slots=True)
class Document:
    """A presentational multimedia document (news article, clip, ...)."""

    document_id: str
    title: str
    components: tuple[Monomedia, ...]
    sync: SyncConstraints = field(default_factory=SyncConstraints)
    copyright_cost: Money = field(default_factory=Money.zero)

    def __post_init__(self) -> None:
        check_name(self.document_id, "document_id")
        check_name(self.title, "title")
        object.__setattr__(self, "components", tuple(self.components))
        check_non_empty(self.components, "document components")
        object.__setattr__(self, "copyright_cost", dollars(self.copyright_cost))
        seen: set[str] = set()
        for component in self.components:
            if not isinstance(component, Monomedia):
                raise DocumentError(f"not a Monomedia: {component!r}")
            if component.monomedia_id in seen:
                raise DocumentError(
                    f"duplicate monomedia id {component.monomedia_id!r}"
                )
            seen.add(component.monomedia_id)
        self.sync.validate_against(seen)

    # -- structure ----------------------------------------------------------

    @property
    def is_monomedia(self) -> bool:
        """Single-component documents are the paper's "monomedia
        document" case."""
        return len(self.components) == 1

    @property
    def monomedia_ids(self) -> tuple[str, ...]:
        return tuple(c.monomedia_id for c in self.components)

    @property
    def media(self) -> tuple[Medium, ...]:
        return tuple(c.medium for c in self.components)

    def component(self, monomedia_id: str) -> Monomedia:
        for candidate in self.components:
            if candidate.monomedia_id == monomedia_id:
                return candidate
        raise DocumentError(
            f"document {self.document_id!r} has no monomedia "
            f"{monomedia_id!r}"
        )

    # -- variants -------------------------------------------------------------

    def iter_variants(self) -> Iterator[Variant]:
        for component in self.components:
            yield from component.variants

    # -- timing ----------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Presentation span implied by the sync constraints (the longest
        component when everything is parallel)."""
        durations = {c.monomedia_id: c.duration_s for c in self.components}
        starts = self.sync.start_times(durations)
        return max(starts[mid] + durations[mid] for mid in durations)

    def __str__(self) -> str:
        kinds = ", ".join(m.value for m in self.media)
        return f"{self.document_id}('{self.title}': {kinds})"
