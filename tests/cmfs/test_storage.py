"""Variant placement and rebalancing."""

import pytest

from repro.cmfs.server import MediaServer
from repro.cmfs.storage import rebalance, storage_by_server, validate_placement
from repro.documents.builder import make_news_article
from repro.documents.catalog import DocumentCatalog
from repro.util.errors import ServerError


@pytest.fixture
def catalog():
    return DocumentCatalog([make_news_article("doc.s")])


class TestValidatePlacement:
    def test_valid_when_fleet_covers(self, catalog):
        servers = [MediaServer("server-a"), MediaServer("server-b")]
        report = validate_placement(catalog, servers)
        assert report.valid
        assert report.orphan_servers == frozenset()
        assert report.variants_per_server["server-a"] > 0

    def test_orphans_detected(self, catalog):
        report = validate_placement(catalog, [MediaServer("server-a")])
        assert not report.valid
        assert report.orphan_servers == {"server-b"}

    def test_bits_accounted(self, catalog):
        servers = [MediaServer("server-a"), MediaServer("server-b")]
        report = validate_placement(catalog, servers)
        total = sum(report.bits_per_server.values())
        document = next(iter(catalog))
        assert total == pytest.approx(
            sum(v.size_bits for v in document.iter_variants())
        )


class TestStorageByServer:
    def test_matches_report(self, catalog):
        servers = [MediaServer("server-a"), MediaServer("server-b")]
        report = validate_placement(catalog, servers)
        assert storage_by_server(catalog) == report.bits_per_server


class TestRebalance:
    def test_round_robin_spread(self, catalog):
        document = next(iter(catalog))
        balanced = rebalance(document, ["s1", "s2", "s3"])
        servers_used = {v.server_id for v in balanced.iter_variants()}
        assert servers_used == {"s1", "s2", "s3"}

    def test_preserves_everything_else(self, catalog):
        document = next(iter(catalog))
        balanced = rebalance(document, ["s1"])
        assert balanced.document_id == document.document_id
        assert [len(c.variants) for c in balanced.components] == [
            len(c.variants) for c in document.components
        ]
        original = list(document.iter_variants())
        moved = list(balanced.iter_variants())
        for before, after in zip(original, moved):
            assert before.qos == after.qos
            assert before.size_bits == after.size_bits

    def test_empty_server_list_rejected(self, catalog):
        with pytest.raises(ServerError):
            rebalance(next(iter(catalog)), [])
