"""Bandwidth-constrained routing."""

import pytest

from repro.network.routing import find_route, find_route_any
from repro.network.topology import Topology
from repro.util.errors import NoRouteError


@pytest.fixture
def diamond():
    """a == two paths == d: a-b-d (fast, low capacity) and a-c-d
    (slow, high capacity)."""
    t = Topology()
    t.connect("a", "b", 5e6, link_id="ab", cost_weight=1.0)
    t.connect("b", "d", 5e6, link_id="bd", cost_weight=1.0)
    t.connect("a", "c", 100e6, link_id="ac", cost_weight=5.0)
    t.connect("c", "d", 100e6, link_id="cd", cost_weight=5.0)
    return t


class TestFindRoute:
    def test_prefers_cheap_path(self, diamond):
        route = find_route(diamond, "a", "d", 1e6)
        assert route.nodes == ("a", "b", "d")
        assert len(route.links) == 2

    def test_detours_when_capacity_lacking(self, diamond):
        route = find_route(diamond, "a", "d", 50e6)
        assert route.nodes == ("a", "c", "d")

    def test_detours_when_reserved(self, diamond):
        diamond.link("ab").reserve(4.5e6, holder="f")
        route = find_route(diamond, "a", "d", 1e6)
        assert route.nodes == ("a", "c", "d")

    def test_no_route_when_all_full(self, diamond):
        with pytest.raises(NoRouteError):
            find_route(diamond, "a", "d", 200e6)

    def test_unknown_nodes(self, diamond):
        with pytest.raises(NoRouteError):
            find_route(diamond, "zz", "d", 1e6)
        with pytest.raises(NoRouteError):
            find_route(diamond, "a", "zz", 1e6)

    def test_same_node_trivial_route(self, diamond):
        route = find_route(diamond, "a", "a", 1e6)
        assert route.links == ()
        assert route.qos.delay_s == 0.0

    def test_qos_accumulates(self, diamond):
        route = find_route(diamond, "a", "d", 1e6)
        assert route.qos.delay_s == pytest.approx(0.004)  # 2 x 2 ms default

    def test_disconnected(self):
        t = Topology()
        t.connect("a", "b", 1e6)
        t.graph.add_node("z")
        with pytest.raises(NoRouteError):
            find_route(t, "a", "z", 1e3)


class TestFindRouteAny:
    def test_ignores_capacity(self, diamond):
        route = find_route_any(diamond, "a", "d")
        assert route.nodes == ("a", "b", "d")  # cheap path even at 0 bps free
        diamond.link("ab").reserve(5e6, holder="f")
        assert find_route_any(diamond, "a", "d").nodes == ("a", "b", "d")

    def test_unknown_node(self, diamond):
        with pytest.raises(NoRouteError):
            find_route_any(diamond, "a", "zz")
