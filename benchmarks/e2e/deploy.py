"""Deployments and inputs for the end-to-end benchmark.

One adapter, :func:`make_manager`, builds every ``QoSManager`` the
closed-loop workloads drive.  It asks for the fastest shipped
synchronous path (``offer_mode="stream"`` plus the process-wide shared
cache) but passes each of those two keyword arguments only while
``QoSManager.__init__`` still accepts it, so a later change that folds
the modes into one pipeline needs no benchmark edit and is compared
against the fastest path that existed before it.

Everything here uses public names of ``repro`` only; the document and
profile shapes mirror the ones ``repro.perf.bench`` sizes its cells
with, rebuilt here so the benchmark does not reach into that module's
private helpers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from repro.client.machine import ClientMachine
from repro.cmfs.admission import AdmissionController
from repro.cmfs.disk import DiskModel
from repro.cmfs.server import MediaServer
from repro.core.importance import default_importance
from repro.core.negotiation import QoSManager
from repro.core.profiles import MMProfile, UserProfile
from repro.documents.builder import DocumentBuilder, MonomediaBuilder
from repro.documents.document import Document
from repro.documents.media import Codecs, ColorMode, Medium, TV_RESOLUTION
from repro.documents.quality import VideoQoS
from repro.journal import ReservationJournal
from repro.metadata.database import MetadataDatabase
from repro.network.topology import Topology
from repro.network.transport import TransportSystem
from repro.perf.cache import reset_shared_cache, shared_cache
from repro.util.clock import ManualClock

__all__ = [
    "SERVER_IDS",
    "Deployment",
    "make_manager",
    "make_deployment",
    "make_document",
    "make_profile",
    "striped_disk",
    "zipf_schedule",
]

SERVER_IDS = ("server-a", "server-b", "server-c")
LINK_BPS = 622e6
DURATION_S = 30.0

# Best-first by construction: the lead flavour satisfies the desired
# profile, the tail ones only the worst-acceptable bound.  A document
# with V variants per axis takes the first V.
VARIANT_FLAVOURS = (
    (ColorMode.COLOR, 25),
    (ColorMode.COLOR, 15),
    (ColorMode.COLOR, 10),
    (ColorMode.GREY, 25),
    (ColorMode.GREY, 15),
    (ColorMode.GREY, 10),
    (ColorMode.COLOR, 5),
    (ColorMode.GREY, 5),
)


def make_document(variants: int, axes: int, index: int = 0) -> Document:
    """``axes`` video monomedia of ``variants`` variants each: an offer
    space of ``variants ** axes``.  ``index`` distinguishes catalogue
    siblings and rotates their server placement."""
    document_id = f"doc.e2e-{variants}x{axes}.d{index + 1}"
    builder = DocumentBuilder(
        document_id, f"e2e article {variants}^{axes} #{index + 1}"
    )
    for axis in range(axes):
        mono = MonomediaBuilder(
            f"{document_id}.m{axis + 1}",
            Medium.VIDEO,
            f"segment {axis + 1}",
            DURATION_S,
        )
        for vindex, (color, frame_rate) in enumerate(
            VARIANT_FLAVOURS[:variants]
        ):
            mono.add_variant(
                Codecs.MPEG1,
                VideoQoS(
                    color=color,
                    frame_rate=frame_rate,
                    resolution=TV_RESOLUTION,
                ),
                SERVER_IDS[(axis + vindex + index) % len(SERVER_IDS)],
            )
        builder.add(mono)
    return builder.copyright(0.25).build()


def make_profile(
    cost_ceiling: float = 500.0,
    *,
    worst: "tuple[ColorMode, int]" = (ColorMode.GREY, 5),
    name: str = "e2e",
) -> UserProfile:
    """Desires colour at 25 fps and tolerates ``worst`` (every flavour,
    by default).  The ceiling is high enough that the best offer
    satisfies the user; perturbing it changes the profile fingerprint
    and nothing else."""
    return UserProfile(
        name=name,
        desired=MMProfile(
            video=VideoQoS(
                color=ColorMode.COLOR,
                frame_rate=25,
                resolution=TV_RESOLUTION,
            ),
            cost=cost_ceiling,
        ),
        worst=MMProfile(
            video=VideoQoS(
                color=worst[0], frame_rate=worst[1], resolution=TV_RESOLUTION
            ),
            cost=cost_ceiling,
        ),
        importance=default_importance(),
    )


def striped_disk() -> DiskModel:
    """The striped array ``repro.sim.load`` gives its fleet: hundreds
    of concurrent streams per server, so the per-server stream cap (not
    the CITR-era disk) is what the contended walk runs into."""
    return DiskModel(
        transfer_rate_bps=600_000_000.0,
        avg_seek_s=0.001,
        rotational_latency_s=0.0005,
        round_s=0.5,
    )


def zipf_schedule(
    rng: np.random.Generator, items: int, size: int, exponent: float
) -> "list[int]":
    """``size`` draws over ``items`` ranks with Zipf(``exponent``)
    popularity."""
    weights = np.arange(1, items + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    return [int(i) for i in rng.choice(items, size=size, p=weights)]


def make_manager(**deployment: object) -> QoSManager:
    """Every closed-loop workload's manager: the fastest shipped
    synchronous configuration the constructor still accepts."""
    accepted = inspect.signature(QoSManager.__init__).parameters
    fastest: "dict[str, object]" = {}
    if "offer_mode" in accepted:
        fastest["offer_mode"] = "stream"
    if "cache" in accepted:
        fastest["cache"] = shared_cache()
    return QoSManager(**deployment, **fastest)  # type: ignore[arg-type]


@dataclass
class Deployment:
    """One manager plus the ledgers the correctness gate audits."""

    manager: QoSManager
    client: ClientMachine
    servers: "dict[str, MediaServer]"
    transport: TransportSystem
    topology: Topology
    journal: "ReservationJournal | None"

    def leaked(self) -> "tuple[int, int, float]":
        """(streams, flows, reserved bps) still held: all zero after a
        clean teardown."""
        return (
            sum(server.stream_count for server in self.servers.values()),
            self.transport.flow_count,
            self.topology.total_reserved_bps(),
        )


def make_deployment(
    documents: "list[Document]",
    *,
    stream_caps: "tuple[int, ...]" = (256, 256, 256),
    disk: "DiskModel | None" = None,
    journal: "ReservationJournal | None" = None,
    link_bps: float = LINK_BPS,
    cold_cache: bool = True,
) -> Deployment:
    """Three servers on one backbone, one client network; every link,
    NIC and buffer pool is sized by ``link_bps``.  With ``cold_cache``
    the shared cache is dropped first, so a deployment never inherits
    a predecessor's entries."""
    disk = disk or DiskModel()
    servers = {
        server_id: MediaServer(
            server_id,
            disk=disk,
            admission=AdmissionController(
                disk=disk,
                buffer_bits=link_bps,
                nic_bps=link_bps,
                max_streams=cap,
            ),
        )
        for server_id, cap in zip(SERVER_IDS, stream_caps)
    }
    topology = Topology()
    for server in servers.values():
        topology.connect(
            server.access_point, "backbone", link_bps,
            link_id=f"L-{server.server_id}",
        )
    topology.connect("client-net", "backbone", link_bps, link_id="L-client")
    database = MetadataDatabase()
    for document in documents:
        database.insert_document(document)
    if cold_cache:
        reset_shared_cache()
    transport = TransportSystem(topology)
    manager = make_manager(
        database=database,
        transport=transport,
        servers=servers,
        clock=ManualClock(),
        journal=journal,
    )
    return Deployment(
        manager=manager,
        client=ClientMachine("e2e-client", access_point="client-net"),
        servers=servers,
        transport=transport,
        topology=topology,
        journal=journal,
    )
