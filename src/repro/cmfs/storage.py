"""Variant placement across the server fleet.

Variants name their hosting server (§2: "the localization of the file");
this module validates placements against a deployed fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..documents.catalog import DocumentCatalog
from ..documents.document import Document
from .server import MediaServer

__all__ = ["PlacementReport", "validate_placement"]


@dataclass(frozen=True, slots=True)
class PlacementReport:
    """Catalogue placement against a fleet."""

    orphan_servers: frozenset[str]   # referenced but not deployed

    @property
    def valid(self) -> bool:
        return not self.orphan_servers


def validate_placement(
    catalog: "DocumentCatalog | Iterable[Document]",
    servers: Sequence[MediaServer],
) -> PlacementReport:
    """Check every variant's server reference against the fleet."""
    known = frozenset(server.server_id for server in servers)
    referenced = {
        variant.server_id
        for document in catalog
        for variant in document.iter_variants()
    }
    return PlacementReport(orphan_servers=frozenset(referenced - known))
