"""Document catalog."""

import pytest

from repro.documents.builder import make_news_article
from repro.documents.catalog import DocumentCatalog
from repro.util.errors import DuplicateKeyError, NotFoundError


@pytest.fixture
def catalog():
    catalog = DocumentCatalog()
    for i in range(3):
        catalog.add(make_news_article(f"doc.{i}", still_server="server-a"))
    return catalog


class TestCatalog:
    def test_len_and_contains(self, catalog):
        assert len(catalog) == 3
        assert "doc.1" in catalog
        assert "doc.x" not in catalog

    def test_get(self, catalog):
        assert catalog.get("doc.0").document_id == "doc.0"
        with pytest.raises(NotFoundError):
            catalog.get("doc.x")

    def test_duplicate_add_rejected(self, catalog):
        with pytest.raises(DuplicateKeyError):
            catalog.add(make_news_article("doc.0"))

    def test_replace_overwrites(self, catalog):
        replacement = make_news_article("doc.0", title="rewritten")
        catalog.replace(replacement)
        assert catalog.get("doc.0").title == "rewritten"
        assert len(catalog) == 3

    def test_remove(self, catalog):
        catalog.remove("doc.1")
        assert "doc.1" not in catalog
        with pytest.raises(NotFoundError):
            catalog.remove("doc.1")

    def test_ordered_iteration(self, catalog):
        assert [d.document_id for d in catalog] == ["doc.0", "doc.1", "doc.2"]

    def test_select(self, catalog):
        picked = catalog.select(lambda d: d.document_id.endswith("2"))
        assert [d.document_id for d in picked] == ["doc.2"]
