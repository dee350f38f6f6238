"""Variant placement across the server fleet."""

import pytest

from repro.cmfs.server import MediaServer
from repro.cmfs.storage import validate_placement
from repro.documents.builder import make_news_article
from repro.documents.catalog import DocumentCatalog


@pytest.fixture
def catalog():
    catalog = DocumentCatalog()
    catalog.add(make_news_article("doc.s"))
    return catalog


class TestValidatePlacement:
    def test_valid_when_fleet_covers(self, catalog):
        servers = [MediaServer("server-a"), MediaServer("server-b")]
        report = validate_placement(catalog, servers)
        assert report.valid
        assert report.orphan_servers == frozenset()

    def test_orphans_detected(self, catalog):
        report = validate_placement(catalog, [MediaServer("server-a")])
        assert not report.valid
        assert report.orphan_servers == {"server-b"}
