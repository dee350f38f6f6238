"""Shared hypothesis strategies for the property suites."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.documents.media import (
    AudioGrade,
    Codecs,
    ColorMode,
    Language,
)
from repro.documents.monomedia import BlockStats, Variant
from repro.documents.quality import AudioQoS, ImageQoS, TextQoS, VideoQoS
from repro.util.units import Money

color_modes = st.sampled_from(list(ColorMode))
audio_grades = st.sampled_from(list(AudioGrade))
languages = st.sampled_from(list(Language))
frame_rates = st.integers(min_value=1, max_value=60)
resolutions = st.integers(min_value=10, max_value=1920)

video_qos = st.builds(
    VideoQoS, color=color_modes, frame_rate=frame_rates, resolution=resolutions
)
audio_qos = st.builds(AudioQoS, grade=audio_grades, language=languages)
image_qos = st.builds(ImageQoS, color=color_modes, resolution=resolutions)
text_qos = st.builds(TextQoS, language=languages)
any_qos = st.one_of(video_qos, audio_qos, image_qos, text_qos)

money = st.integers(min_value=0, max_value=100_000).map(Money)
signed_money = st.integers(min_value=-100_000, max_value=100_000).map(Money)


@st.composite
def block_stats(draw, continuous: bool = True):
    avg = draw(st.floats(min_value=1e3, max_value=1e6, allow_nan=False))
    burst = draw(st.floats(min_value=1.0, max_value=5.0, allow_nan=False))
    rate = draw(st.floats(min_value=1.0, max_value=60.0)) if continuous else 0.0
    return BlockStats(
        max_block_bits=avg * burst, avg_block_bits=avg, blocks_per_second=rate
    )


@st.composite
def video_variants(draw, monomedia_id: str = "m.v", index: int | None = None):
    qos = draw(video_qos)
    stats = draw(block_stats())
    name = draw(st.integers(min_value=0, max_value=10**6)) if index is None else index
    return Variant(
        variant_id=f"{monomedia_id}.v{name}",
        monomedia_id=monomedia_id,
        codec=draw(st.sampled_from([Codecs.MPEG1, Codecs.MPEG2])),
        qos=qos,
        size_bits=draw(st.floats(min_value=1e6, max_value=1e10)),
        block_stats=stats,
        server_id=draw(st.sampled_from(["server-a", "server-b", "server-c"])),
        duration_s=draw(st.floats(min_value=1.0, max_value=600.0)),
    )


# -- banded offer spaces (stream band-laziness suites) ------------------------------

GRID_FLAVOURS = (
    (ColorMode.COLOR, 25),
    (ColorMode.COLOR, 15),
    (ColorMode.COLOR, 10),
    (ColorMode.GREY, 25),
    (ColorMode.GREY, 10),
)
GRID_SERVERS = ("server-a", "server-b", "server-c")
GRID_RESOLUTION = 480


def grid_document(flavours_per_axis, document_id="doc.grid", rotate=0):
    """A document with one video monomedia per entry of
    ``flavours_per_axis``, each holding the listed (colour, fps)
    variants; variant ``v`` of axis ``x`` sits on server
    ``(x + v + rotate) mod 3``.  Repeated flavours are replicas: equal
    QoS, equal cost, hence exact OIF ties."""
    from repro.documents.builder import DocumentBuilder, MonomediaBuilder
    from repro.documents.media import Medium

    builder = DocumentBuilder(document_id, "grid")
    for axis, flavours in enumerate(flavours_per_axis):
        mono = MonomediaBuilder(
            f"{document_id}.m{axis + 1}", Medium.VIDEO,
            f"segment {axis + 1}", 30.0,
        )
        for index, (color, frame_rate) in enumerate(flavours):
            mono.add_variant(
                Codecs.MPEG1,
                VideoQoS(
                    color=color,
                    frame_rate=frame_rate,
                    resolution=GRID_RESOLUTION,
                ),
                GRID_SERVERS[(axis + index + rotate) % len(GRID_SERVERS)],
            )
        builder.add(mono)
    return builder.copyright(0.25).build()


def grid_manager(documents, stream_caps, **manager_options):
    """A three-server deployment holding ``documents`` whose only
    limits are the per-server stream caps."""
    from repro.cmfs import MediaServer
    from repro.cmfs.admission import AdmissionController
    from repro.cmfs.disk import DiskModel
    from repro.core import QoSManager
    from repro.metadata import MetadataDatabase
    from repro.network import Topology, TransportSystem

    disk = DiskModel(
        transfer_rate_bps=600_000_000.0, avg_seek_s=0.001,
        rotational_latency_s=0.0005, round_s=0.5,
    )
    servers = {
        server_id: MediaServer(
            server_id,
            disk=disk,
            admission=AdmissionController(
                disk=disk, buffer_bits=1e10, nic_bps=1e10, max_streams=cap
            ),
        )
        for server_id, cap in zip(GRID_SERVERS, stream_caps)
    }
    topology = Topology()
    for server in servers.values():
        topology.connect(server.access_point, "backbone", 1e10)
    topology.connect("client-net", "backbone", 1e10)
    database = MetadataDatabase()
    for document in documents:
        database.insert_document(document)
    return QoSManager(
        database=database,
        transport=TransportSystem(topology),
        servers=servers,
        **manager_options,
    )


def grid_space(flavours_per_axis):
    from repro.client.machine import ClientMachine
    from repro.core.cost import default_cost_model
    from repro.core.enumeration import build_offer_space

    return build_offer_space(
        grid_document(flavours_per_axis),
        ClientMachine("grid-client", access_point="client-net"),
        default_cost_model(),
    )


def grid_profile(desired, worst, budget_cents):
    """A video profile over (colour, fps) bounds with an exact budget."""
    from repro.core.importance import default_importance
    from repro.core.profiles import MMProfile, UserProfile

    def side(bound):
        return MMProfile(
            video=VideoQoS(
                color=bound[0], frame_rate=bound[1], resolution=GRID_RESOLUTION
            ),
            cost=Money(budget_cents),
        )

    return UserProfile(
        name="grid",
        desired=side(desired),
        worst=side(worst),
        importance=default_importance(),
    )


def offer_cost_bounds(space):
    """(cheapest, dearest) total cents over the whole product."""
    axes = [space.axis(mid) for mid in space.monomedia_ids]
    return tuple(
        space.copyright_cents
        + sum(pick(choice.cost_cents for choice in axis) for axis in axes)
        for pick in (min, max)
    )


@st.composite
def banded_cases(draw, desirable="any", budgets=("none", "all", "mixed")):
    """``(space, profile)`` over a 1–6 axis grid.

    ``desirable`` shapes the DESIRABLE band: ``"empty"`` (the desired
    bound beats every variant), ``"single"`` (exactly one variant per
    axis meets it) or ``"any"``.  ``budgets`` lists the cost ceilings
    to draw from: below the cheapest offer, above the dearest, or
    midway (affordability then differs inside a band).
    """
    axes = draw(st.integers(min_value=1, max_value=6))
    tail = st.lists(
        st.sampled_from(GRID_FLAVOURS[1:]), min_size=1, max_size=3
    )
    if desirable == "single":
        # One lead-flavour variant per axis, anywhere among the others.
        flavours_per_axis = []
        for _ in range(axes):
            others = draw(tail)
            at = draw(st.integers(min_value=0, max_value=len(others)))
            flavours_per_axis.append(
                others[:at] + [GRID_FLAVOURS[0]] + others[at:]
            )
        desired = GRID_FLAVOURS[0]
    elif desirable == "empty":
        flavours_per_axis = [draw(tail) for _ in range(axes)]
        desired = GRID_FLAVOURS[0]
    else:
        flavours_per_axis = [
            draw(st.lists(
                st.sampled_from(GRID_FLAVOURS), min_size=1, max_size=4
            ))
            for _ in range(axes)
        ]
        desired = draw(st.sampled_from(GRID_FLAVOURS[:2]))
    worst = draw(st.sampled_from(
        [f for f in GRID_FLAVOURS if f[0] <= desired[0] and f[1] <= desired[1]]
    ))
    space = grid_space(flavours_per_axis)
    cheapest, dearest = offer_cost_bounds(space)
    budget = {
        "none": cheapest - 1,
        "all": dearest,
        "mixed": (cheapest + dearest) // 2,
    }[draw(st.sampled_from(budgets))]
    return space, grid_profile(desired, worst, budget)
