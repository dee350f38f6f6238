"""Network substrate: topology, routing, per-flow reservations, QoS,
and multi-domain hierarchical reservation ([Haf 95b] extension)."""

from .domains import Domain, DomainAgent, DomainMap, HierarchicalTransport
from .link import Link, LinkReservation
from .qosparams import STEINMETZ_PRESETS, FlowSpec, PathQoS, preset_for
from .routing import Route, find_route
from .topology import Topology
from .transport import FlowReservation, GuaranteeType, TransportSystem

__all__ = [
    "Domain",
    "DomainAgent",
    "DomainMap",
    "HierarchicalTransport",
    "Link",
    "LinkReservation",
    "STEINMETZ_PRESETS",
    "FlowSpec",
    "PathQoS",
    "preset_for",
    "Route",
    "find_route",
    "Topology",
    "FlowReservation",
    "GuaranteeType",
    "TransportSystem",
]
