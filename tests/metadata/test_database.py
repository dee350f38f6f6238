"""Metadata database: ingestion, reassembly, queries."""

import pytest

from repro.documents.builder import make_news_article
from repro.documents.media import Codecs, ColorMode
from repro.documents.monomedia import BlockStats, Variant
from repro.documents.quality import VideoQoS
from repro.metadata.database import MetadataDatabase
from repro.util.errors import DuplicateKeyError, NotFoundError


@pytest.fixture
def document():
    return make_news_article("doc.db")


@pytest.fixture
def db(document):
    database = MetadataDatabase()
    database.insert_document(document)
    return database


def record_counts(db):
    return len(db._documents), len(db._monomedia), len(db._variants)


class TestIngestion:
    def test_counts(self, db, document):
        assert db.document_count == 1
        assert record_counts(db) == (1, 4, 16)

    def test_duplicate_document_rejected(self, db, document):
        with pytest.raises(DuplicateKeyError):
            db.insert_document(document)

    def test_insert_catalog(self, document):
        from repro.documents.catalog import DocumentCatalog

        db = MetadataDatabase()
        catalog = DocumentCatalog()
        catalog.add(document)
        db.insert_catalog(catalog)
        assert db.document_count == 1


class TestReassembly:
    def test_document_roundtrip(self, db, document):
        assert db.get_document(document.document_id) == document

    def test_monomedia_roundtrip(self, db, document):
        component = document.components[0]
        assert db.get_monomedia(component.monomedia_id) == component

    def test_missing_lookups(self, db):
        with pytest.raises(NotFoundError):
            db.get_document("ghost")
        with pytest.raises(NotFoundError):
            db.get_monomedia("ghost")


class TestMutation:
    def _extra_variant(self, document):
        component = document.components[0]
        template = component.variants[0]
        return Variant(
            variant_id="extra.v",
            monomedia_id=component.monomedia_id,
            codec=Codecs.MPEG1,
            qos=VideoQoS(color=ColorMode.GREY, frame_rate=5, resolution=180),
            size_bits=1e7,
            block_stats=BlockStats(1e4, 1e4, 5.0),
            server_id="server-c",
            duration_s=template.duration_s,
        )

    def test_add_variant(self, db, document):
        db.add_variant(self._extra_variant(document))
        assert record_counts(db) == (1, 4, 17)

    def test_add_variant_unknown_monomedia(self, db, document):
        variant = self._extra_variant(document)
        bad = Variant(
            variant_id=variant.variant_id,
            monomedia_id="ghost",
            codec=variant.codec,
            qos=variant.qos,
            size_bits=variant.size_bits,
            block_stats=variant.block_stats,
            server_id=variant.server_id,
            duration_s=variant.duration_s,
        )
        with pytest.raises(NotFoundError):
            db.add_variant(bad)

    def test_reassembly_after_add(self, db, document):
        db.add_variant(self._extra_variant(document))
        rebuilt = db.get_document(document.document_id)
        assert len(rebuilt.components[0].variants) == 9
