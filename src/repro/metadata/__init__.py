"""Metadata database substrate (stands in for the U. Alberta MM DBMS).

Holds documents, monomedia and variants as flat records with the
indexes the negotiation procedure queries.
"""

from .database import MetadataDatabase
from .schema import (
    DocumentRecord,
    MonomediaRecord,
    VariantRecord,
    qos_from_record,
    qos_to_record,
    sync_from_record,
    sync_to_record,
)

__all__ = [name for name in dir() if not name.startswith("_")]
