"""Scenario builder: assemble a complete news-on-demand deployment.

A scenario bundles everything one experiment needs — catalogue, metadata
database, server fleet, topology, transport, clients, clock, QoS manager
— built from a compact :class:`ScenarioSpec`.  The default scenario
mirrors the CITR prototype's shape: a handful of server machines on a
shared backbone, client access networks, and a catalogue of news
articles with variant grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..client.machine import ClientMachine
from ..cmfs.admission import AdmissionController
from ..cmfs.disk import DiskModel
from ..cmfs.server import MediaServer
from ..cmfs.storage import validate_placement
from ..core.classification import ClassificationPolicy
from ..core.cost import CostModel, default_cost_model
from ..core.mapping import QoSMapper
from ..core.negotiation import QoSManager
from ..documents.builder import make_news_article
from ..documents.catalog import DocumentCatalog
from ..faults.plan import FaultKind, FaultSpec
from ..metadata.database import MetadataDatabase
from ..network.topology import Topology
from ..network.transport import GuaranteeType, TransportSystem
from ..session.engine import EventLoop
from ..session.runtime import SessionRuntime
from ..telemetry import Telemetry, observe_breaker
from ..util.clock import ManualClock
from ..util.errors import SimulationError
from ..util.validation import check_positive

__all__ = [
    "ScenarioSpec",
    "Scenario",
    "build_scenario",
    "fleet_ids",
    "brownout_faults",
]


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """Knobs of the default deployment."""

    server_count: int = 3
    client_count: int = 4
    document_count: int = 6
    backbone_bps: float = 622_000_000.0     # OC-12 backbone links
    server_access_bps: float = 155_000_000.0  # OC-3 per server
    client_access_bps: float = 100_000_000.0  # shared client access net
    document_duration_s: float = 120.0
    max_streams_per_server: int = 64
    multi_domain: bool = False
    metro_transit_quota_bps: "float | None" = None
    # Storm-scale knobs: a custom disk model for the whole fleet (None
    # = the CITR-era default) and lean two-stream documents (video +
    # audio only), so one deployment can hold hundreds of sessions.
    disk: "DiskModel | None" = None
    lean_documents: bool = False

    def __post_init__(self) -> None:
        if self.server_count < 1:
            raise SimulationError("need at least one server")
        if self.client_count < 1:
            raise SimulationError("need at least one client")
        if self.document_count < 1:
            raise SimulationError("need at least one document")
        check_positive(self.backbone_bps, "backbone_bps")
        check_positive(self.server_access_bps, "server_access_bps")
        check_positive(self.client_access_bps, "client_access_bps")
        check_positive(self.document_duration_s, "document_duration_s")


def fleet_ids(count: int) -> "list[str]":
    """The fleet's naming rule: ``server-a``, ``server-b``, …"""
    return [f"server-{chr(ord('a') + i)}" for i in range(count)]


def brownout_faults(
    servers: int, *, start_s: float, duration_s: float, severity: float
) -> "tuple[FaultSpec, ...]":
    """One ``SERVER_BROWNOUT`` window over the first ``servers``
    machines of the fleet."""
    return tuple(
        FaultSpec(
            kind=FaultKind.SERVER_BROWNOUT,
            target_id=server_id,
            start_s=start_s,
            duration_s=duration_s,
            value=severity,
        )
        for server_id in fleet_ids(servers)
    )


@dataclass(slots=True)
class Scenario:
    """A fully wired deployment ready for negotiation experiments."""

    spec: ScenarioSpec
    catalog: DocumentCatalog
    database: MetadataDatabase
    servers: dict[str, MediaServer]
    topology: Topology
    transport: TransportSystem
    clients: dict[str, ClientMachine]
    clock: ManualClock
    manager: QoSManager
    loop: EventLoop
    telemetry: "Telemetry | None" = None

    def runtime(self, **kwargs) -> SessionRuntime:
        """A fresh session runtime over this scenario's manager/loop."""
        return SessionRuntime(self.manager, self.loop, **kwargs)

    def any_client(self) -> ClientMachine:
        return next(iter(self.clients.values()))

    def document_ids(self) -> tuple[str, ...]:
        return self.catalog.document_ids

    def reset_resources(self) -> None:
        """Release every reservation and congestion (between sweeps)."""
        self.transport.release_all()
        for server in self.servers.values():
            server.release_all()
            server.set_degradation(0.0)
        self.topology.clear_congestion()


def build_scenario(
    spec: ScenarioSpec | None = None,
    *,
    cost_model: CostModel | None = None,
    mapper: QoSMapper | None = None,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
    guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
    retry_policy=None,
    health=None,
    lease_ttl_s: "float | None" = None,
    retry_seed: int = 0,
    journal=None,
    telemetry_seed: "int | None" = None,
    use_cache: bool = False,
) -> Scenario:
    """Build the default deployment from ``spec``.

    ``telemetry_seed`` switches the deployment's observability on: a
    :class:`~repro.telemetry.Telemetry` hub seeded with it is wired into
    the manager, the server fleet, the transport, the journal and the
    breaker, and exposed as ``Scenario.telemetry``.

    ``use_cache`` wires a :class:`~repro.perf.NegotiationCache` into
    the manager: a pure throughput knob, negotiation outcomes are
    identical.
    """
    spec = spec or ScenarioSpec()

    server_ids = fleet_ids(spec.server_count)
    disk = spec.disk or DiskModel()  # frozen: safe to share
    servers = {
        server_id: MediaServer(
            server_id,
            disk=disk,
            admission=AdmissionController(
                disk=disk,
                nic_bps=spec.server_access_bps,
                max_streams=spec.max_streams_per_server,
            ),
        )
        for server_id in server_ids
    }

    topology = Topology()
    for server in servers.values():
        topology.connect(
            server.access_point, "backbone", spec.server_access_bps,
            link_id=f"L-{server.server_id}",
        )
    clients = {}
    for i in range(spec.client_count):
        client_id = f"client-{i + 1}"
        access = f"{client_id}-net"
        topology.connect(
            access, "backbone", spec.client_access_bps,
            link_id=f"L-{client_id}",
        )
        clients[client_id] = ClientMachine(client_id, access_point=access)

    catalog = DocumentCatalog()
    for i in range(spec.document_count):
        video_servers = [server_ids[(i + j) % len(server_ids)] for j in range(2)]
        catalog.add(
            make_news_article(
                f"doc.news-{i + 1}",
                title=f"news article {i + 1}",
                duration_s=spec.document_duration_s,
                video_servers=video_servers,
                # Audio is replicated on the fleet's first two machines.
                audio_servers=server_ids[:2],
                still_server=server_ids[i % len(server_ids)],
                include_image=not spec.lean_documents,
                include_text=not spec.lean_documents,
            )
        )

    placement = validate_placement(catalog, list(servers.values()))
    if not placement.valid:
        raise SimulationError(
            f"catalogue references unknown servers: "
            f"{sorted(placement.orphan_servers)}"
        )

    database = MetadataDatabase()
    database.insert_catalog(catalog)

    clock = ManualClock()
    telemetry = (
        Telemetry(clock=clock, seed=telemetry_seed)
        if telemetry_seed is not None
        else None
    )
    if spec.multi_domain:
        # Three-domain split ([Haf 95b] extension): servers in the
        # provider domain, the backbone node in the metro domain,
        # client access networks in the campus domain.
        from ..network.domains import Domain, DomainMap, HierarchicalTransport

        dmap = DomainMap(
            [
                Domain("provider"),
                Domain("metro", transit_quota_bps=spec.metro_transit_quota_bps),
                Domain("campus"),
            ]
        )
        dmap.assign("backbone", "metro")
        for server in servers.values():
            dmap.assign(server.access_point, "provider")
        for client in clients.values():
            dmap.assign(client.access_point, "campus")
        transport = HierarchicalTransport(topology, dmap)
    else:
        transport = TransportSystem(topology)
    cache = None
    if use_cache:
        from ..perf.cache import NegotiationCache

        # Deliberately private, not shared_cache(): every scenario is a
        # hermetic deployment whose cache counters must start cold, and
        # its telemetry hub is scenario-scoped.
        cache = NegotiationCache(telemetry=telemetry)  # reprolint: disable=REP018 -- hermetic per-scenario cache with scenario-scoped telemetry
    manager = QoSManager(
        database=database,
        transport=transport,
        servers=servers,
        cost_model=cost_model or default_cost_model(),
        mapper=mapper,
        clock=clock,
        policy=policy,
        guarantee=guarantee,
        retry_policy=retry_policy,
        health=health,
        lease_ttl_s=lease_ttl_s,
        retry_seed=retry_seed,
        journal=journal,
        telemetry=telemetry,
        cache=cache,
    )
    if telemetry is not None:
        transport.telemetry = telemetry
        for server in servers.values():
            server.telemetry = telemetry
        if journal is not None:
            journal.telemetry = telemetry
        if health is not None:
            observe_breaker(health, telemetry)
    return Scenario(
        spec=spec,
        catalog=catalog,
        database=database,
        servers=servers,
        topology=topology,
        transport=transport,
        clients=clients,
        clock=clock,
        manager=manager,
        loop=EventLoop(clock),
        telemetry=telemetry,
    )
