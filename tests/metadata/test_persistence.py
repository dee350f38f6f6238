"""JSON persistence of the metadata database."""

import json

import pytest

from repro.documents.builder import make_news_article
from repro.metadata.database import MetadataDatabase
from repro.metadata.persistence import (
    SCHEMA_VERSION,
    dumps,
    load_database,
    loads,
    save_database,
)
from repro.util.errors import PersistenceError


@pytest.fixture
def db():
    database = MetadataDatabase()
    database.insert_document(make_news_article("doc.p1"))
    database.insert_document(make_news_article("doc.p2"))
    return database


class TestDumpsLoads:
    def test_roundtrip_preserves_documents(self, db):
        restored = loads(dumps(db))
        for document_id in ("doc.p1", "doc.p2"):
            assert restored.get_document(document_id) == db.get_document(
                document_id
            )

    def test_envelope_versioned(self, db):
        envelope = json.loads(dumps(db))
        assert envelope["schema_version"] == SCHEMA_VERSION

    def test_wrong_version_rejected(self, db):
        envelope = json.loads(dumps(db))
        envelope["schema_version"] = 999
        with pytest.raises(PersistenceError, match="version"):
            loads(json.dumps(envelope))

    def test_invalid_json_rejected(self):
        with pytest.raises(PersistenceError):
            loads("{not json")

    def test_non_object_root_rejected(self):
        with pytest.raises(PersistenceError):
            loads("[1, 2]")

    def test_missing_relations_rejected(self, db):
        with pytest.raises(PersistenceError):
            loads(json.dumps({"schema_version": SCHEMA_VERSION}))


class TestFiles:
    def test_save_and_load(self, db, tmp_path):
        path = save_database(db, tmp_path / "meta.json")
        restored = load_database(path)
        assert restored.dump_records() == db.dump_records()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no snapshot"):
            load_database(tmp_path / "absent.json")

    def test_empty_database_roundtrip(self, tmp_path):
        db = MetadataDatabase()
        path = save_database(db, tmp_path / "empty.json")
        assert load_database(path).document_count == 0
