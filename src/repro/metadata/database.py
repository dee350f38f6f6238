"""In-process metadata database (substitute for the U. Alberta MM DBMS).

Stores the three relations of :mod:`repro.metadata.schema` with the
indexes the negotiation procedure needs:

* *by document* — reassemble a full :class:`Document` for playout;
* *by monomedia* — the variant lists that seed offer enumeration
  (§4 step 2 operates on "the variants, related to the document
  selected").

The store is synchronous and in-process: the paper's negotiation reads
metadata once per request, so a remote DBMS adds latency but no
behavioural difference.
"""

from __future__ import annotations

from typing import Iterable

from ..documents.catalog import DocumentCatalog
from ..documents.document import Document
from ..documents.media import Medium
from ..documents.monomedia import Monomedia, Variant
from ..util.errors import DuplicateKeyError, NotFoundError
from ..util.units import Money
from .schema import (
    DocumentRecord,
    MonomediaRecord,
    VariantRecord,
    sync_from_record,
    sync_to_record,
)

__all__ = ["MetadataDatabase"]


class MetadataDatabase:
    """The metadata store backing the QoS manager and the servers."""

    def __init__(self) -> None:
        self._documents: dict[str, DocumentRecord] = {}
        self._monomedia: dict[str, MonomediaRecord] = {}
        self._variants: dict[str, VariantRecord] = {}
        self._variants_by_monomedia: dict[str, list[str]] = {}
        # Monotonic per-document mutation counters.  Cache layers key
        # entries by (document_id, version) so any catalog change makes
        # stale entries unreachable.
        self._versions: dict[str, int] = {}
        # Hydrate-once memo: document id -> (version, hydrated document),
        # one entry per stored document.  Documents are frozen, so every
        # request of an unchanged document shares the one object.
        self._hydrated: dict[str, tuple[int, Document]] = {}

    def version_of(self, document_id: str) -> int:
        """The document's current mutation counter (0 when unknown)."""
        return self._versions.get(document_id, 0)

    def _bump_version(self, document_id: str) -> None:
        self._versions[document_id] = self._versions.get(document_id, 0) + 1

    # -- ingestion -----------------------------------------------------------

    def insert_document(self, document: Document) -> None:
        """Decompose ``document`` into records.  Atomic: on any key
        collision nothing is inserted."""
        if document.document_id in self._documents:
            raise DuplicateKeyError(
                f"document {document.document_id!r} already stored"
            )
        for component in document.components:
            if component.monomedia_id in self._monomedia:
                raise DuplicateKeyError(
                    f"monomedia {component.monomedia_id!r} already stored"
                )
            for variant in component.variants:
                if variant.variant_id in self._variants:
                    raise DuplicateKeyError(
                        f"variant {variant.variant_id!r} already stored"
                    )

        self._documents[document.document_id] = DocumentRecord(
            document_id=document.document_id,
            title=document.title,
            monomedia_ids=document.monomedia_ids,
            copyright_cents=document.copyright_cost.cents,
            sync_blob=sync_to_record(document.sync),
        )
        for component in document.components:
            self._monomedia[component.monomedia_id] = MonomediaRecord(
                monomedia_id=component.monomedia_id,
                document_id=document.document_id,
                medium=component.medium.value,
                title=component.title,
                duration_s=component.duration_s,
            )
            for variant in component.variants:
                self._index_variant(VariantRecord.from_variant(variant))
        self._bump_version(document.document_id)

    def insert_catalog(self, catalog: "DocumentCatalog | Iterable[Document]") -> None:
        for document in catalog:
            self.insert_document(document)

    def add_variant(self, variant: Variant) -> None:
        """Register a new physical variant (e.g. a replica created after
        ingest).  The owning monomedia must exist."""
        if variant.monomedia_id not in self._monomedia:
            raise NotFoundError(f"no monomedia {variant.monomedia_id!r}")
        if variant.variant_id in self._variants:
            raise DuplicateKeyError(
                f"variant {variant.variant_id!r} already stored"
            )
        self._index_variant(VariantRecord.from_variant(variant))
        self._bump_version(self._monomedia[variant.monomedia_id].document_id)

    def _index_variant(self, record: VariantRecord) -> None:
        self._variants[record.variant_id] = record
        self._variants_by_monomedia.setdefault(
            record.monomedia_id, []
        ).append(record.variant_id)

    # -- reassembly -----------------------------------------------------------

    def get_document(self, document_id: str) -> Document:
        """The stored document, reassembled from its records once per
        :meth:`version_of` value: any mutation of the document bumps the
        version, which makes the memoised object unreachable."""
        try:
            record = self._documents[document_id]
        except KeyError:
            raise NotFoundError(f"no document {document_id!r}") from None
        version = self.version_of(document_id)
        memo = self._hydrated.get(document_id)
        if memo is not None and memo[0] == version:
            return memo[1]
        components = tuple(
            self.get_monomedia(monomedia_id)
            for monomedia_id in record.monomedia_ids
        )
        document = Document(
            document_id=record.document_id,
            title=record.title,
            components=components,
            sync=sync_from_record(record.sync_blob),
            copyright_cost=Money(record.copyright_cents),
        )
        self._hydrated[document_id] = (version, document)
        return document

    def get_monomedia(self, monomedia_id: str) -> Monomedia:
        try:
            record = self._monomedia[monomedia_id]
        except KeyError:
            raise NotFoundError(f"no monomedia {monomedia_id!r}") from None
        variants = tuple(
            self._variants[variant_id].to_variant()
            for variant_id in self._variants_by_monomedia.get(monomedia_id, ())
        )
        return Monomedia(
            monomedia_id=record.monomedia_id,
            medium=Medium.parse(record.medium),
            title=record.title,
            duration_s=record.duration_s,
            variants=variants,
        )

    # -- queries ----------------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self._documents)

    # -- raw record access (persistence layer) -----------------------------------

    def dump_records(self) -> dict:
        """Plain-dict snapshot of all three relations."""
        return {
            "documents": [
                {
                    "document_id": rec.document_id,
                    "title": rec.title,
                    "monomedia_ids": list(rec.monomedia_ids),
                    "copyright_cents": rec.copyright_cents,
                    "sync_blob": rec.sync_blob,
                }
                for rec in self._documents.values()
            ],
            "monomedia": [
                {
                    "monomedia_id": rec.monomedia_id,
                    "document_id": rec.document_id,
                    "medium": rec.medium,
                    "title": rec.title,
                    "duration_s": rec.duration_s,
                }
                for rec in self._monomedia.values()
            ],
            "variants": [rec.as_dict() for rec in self._variants.values()],
        }

    @classmethod
    def from_records(cls, blob: dict) -> "MetadataDatabase":
        """Rebuild a database from a :meth:`dump_records` snapshot."""
        db = cls()
        for item in blob.get("documents", ()):
            db._documents[item["document_id"]] = DocumentRecord(
                document_id=item["document_id"],
                title=item["title"],
                monomedia_ids=tuple(item["monomedia_ids"]),
                copyright_cents=int(item["copyright_cents"]),
                sync_blob=item.get("sync_blob", {}),
            )
        for item in blob.get("monomedia", ()):
            db._monomedia[item["monomedia_id"]] = MonomediaRecord(**item)
        for item in blob.get("variants", ()):
            db._index_variant(VariantRecord(**item))
        for document_id in db._documents:
            db._bump_version(document_id)
        return db
