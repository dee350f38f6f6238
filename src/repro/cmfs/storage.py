"""Variant placement across the server fleet.

Variants name their hosting server (§2: "the localization of the file");
this module validates placements against a deployed fleet and summarises
per-server storage demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..documents.catalog import DocumentCatalog
from ..documents.document import Document
from .server import MediaServer

__all__ = ["PlacementReport", "validate_placement"]


@dataclass(frozen=True, slots=True)
class PlacementReport:
    """Summary of catalogue placement against a fleet."""

    known_servers: frozenset[str]
    referenced_servers: frozenset[str]
    orphan_servers: frozenset[str]   # referenced but not deployed
    variants_per_server: Mapping[str, int]
    bits_per_server: Mapping[str, float]

    @property
    def valid(self) -> bool:
        return not self.orphan_servers


def validate_placement(
    catalog: "DocumentCatalog | Iterable[Document]",
    servers: Sequence[MediaServer],
) -> PlacementReport:
    """Check every variant's server reference against the fleet."""
    known = frozenset(server.server_id for server in servers)
    variants_per: dict[str, int] = {}
    bits_per: dict[str, float] = {}
    referenced: set[str] = set()
    for document in catalog:
        for variant in document.iter_variants():
            referenced.add(variant.server_id)
            variants_per[variant.server_id] = (
                variants_per.get(variant.server_id, 0) + 1
            )
            bits_per[variant.server_id] = (
                bits_per.get(variant.server_id, 0.0) + variant.size_bits
            )
    return PlacementReport(
        known_servers=known,
        referenced_servers=frozenset(referenced),
        orphan_servers=frozenset(referenced - known),
        variants_per_server=variants_per,
        bits_per_server=bits_per,
    )
