"""Topology construction and lookups."""

import pytest

from repro.network.link import Link
from repro.network.topology import Topology
from repro.util.errors import NetworkError, NotFoundError


@pytest.fixture
def topo():
    t = Topology()
    t.connect("a", "b", 10e6, link_id="ab")
    t.connect("b", "c", 20e6, link_id="bc")
    return t


class TestConstruction:
    def test_connect_creates_link(self, topo):
        assert topo.link("ab").capacity_bps == 10e6

    def test_duplicate_link_id_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.add_link(Link("ab", "x", "y", 1e6))

    def test_parallel_edge_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.connect("a", "b", 5e6, link_id="ab2")

    def test_default_link_id(self):
        t = Topology()
        link = t.connect("x", "y", 1e6)
        assert link.link_id == "link:x--y"


class TestLookups:
    def test_link_between(self, topo):
        assert topo.link_between("a", "b").link_id == "ab"
        assert topo.link_between("b", "a").link_id == "ab"  # undirected
        with pytest.raises(NotFoundError):
            topo.link_between("a", "c")

    def test_links_on_path(self, topo):
        links = topo.links_on_path(["a", "b", "c"])
        assert [l.link_id for l in links] == ["ab", "bc"]

    def test_links_on_short_path_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.links_on_path(["a"])

    def test_unknown_link(self, topo):
        with pytest.raises(NotFoundError):
            topo.link("zz")


class TestHealth:
    def test_totals(self, topo):
        topo.link("ab").reserve(4e6, holder="f")
        assert topo.total_reserved_bps() == 4e6

    def test_oversubscribed_links(self, topo):
        topo.link("ab").reserve(8e6, holder="f")
        assert topo.oversubscribed_links() == ()
        topo.link("ab").set_congestion(0.5)
        assert [l.link_id for l in topo.oversubscribed_links()] == ["ab"]

    def test_clear_congestion(self, topo):
        topo.link("ab").set_congestion(0.7)
        topo.clear_congestion()
        assert topo.link("ab").congestion == 0.0
