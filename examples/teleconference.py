#!/usr/bin/env python3
"""Beyond presentational playback: a teleconference over the same API.

The paper's conclusion: "The QoS GUI is customized in our implementation
for a range of presentational applications; however it can be used for
any application handling MM information, such as teleconferencing
systems."  A conference is modelled as one long 'document' per remote
site (the camera feed is a video monomedia with bitrate variants, the
microphone an audio monomedia), negotiated per participant with the
unchanged six-step procedure; adaptation handles a mid-call backbone
brown-out across every leg at once.

Run:  python examples/teleconference.py
"""

from repro.client import ClientMachine
from repro.cmfs import MediaServer
from repro.core import QoSManager, make_profile
from repro.documents import (
    AudioGrade,
    AudioQoS,
    Codecs,
    ColorMode,
    DocumentBuilder,
    Language,
    MonomediaBuilder,
    VideoQoS,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.metadata import MetadataDatabase
from repro.network import Topology, TransportSystem
from repro.session import EventLoop, SessionRuntime
from repro.util.clock import ManualClock

SITES = ("montreal", "ottawa", "vancouver")
CALL_LENGTH_S = 600.0


def feed_document(site: str):
    """One site's outgoing feed: H.261-style tiers of the camera."""
    video = MonomediaBuilder(f"conf.{site}.video", "video",
                             f"{site} camera", CALL_LENGTH_S)
    for color, rate, resolution in (
        (ColorMode.COLOR, 25, 360),
        (ColorMode.COLOR, 15, 360),
        (ColorMode.GREY, 10, 180),
    ):
        video.add_variant(
            Codecs.MPEG1,
            VideoQoS(color=color, frame_rate=rate, resolution=resolution),
            f"mcu-{site}",
        )
    audio = MonomediaBuilder(f"conf.{site}.audio", "audio",
                             f"{site} microphone", CALL_LENGTH_S)
    for grade in (AudioGrade.CD, AudioGrade.TELEPHONE):
        audio.add_variant(
            Codecs.MPEG_AUDIO,
            AudioQoS(grade=grade, language=Language.NONE),
            f"mcu-{site}",
        )
    return (
        DocumentBuilder(f"conf.{site}", f"feed from {site}")
        .add(video)
        .add(audio)
        .parallel(f"conf.{site}.video", f"conf.{site}.audio")
        .build()
    )


def main() -> None:
    database = MetadataDatabase()
    topology = Topology()
    topology.connect("viewer-net", "backbone", 100e6, link_id="L-viewer")
    servers = {}
    for site in SITES:
        database.insert_document(feed_document(site))
        server = MediaServer(f"mcu-{site}")
        servers[server.server_id] = server
        topology.connect(
            server.access_point, "backbone", 155e6, link_id=f"L-{site}"
        )
    transport = TransportSystem(topology)
    clock = ManualClock()
    manager = QoSManager(
        database=database,
        transport=transport,
        servers=servers,
        clock=clock,
    )
    loop = EventLoop(clock)
    runtime = SessionRuntime(manager, loop, monitor_period_s=0.5)

    # Conferencing priorities: intelligibility first — audio weighs
    # three times the video, frame rate matters more than colour.
    profile = make_profile(
        "conference",
        desired_video=VideoQoS(color=ColorMode.COLOR, frame_rate=25,
                               resolution=360),
        worst_video=VideoQoS(color=ColorMode.GREY, frame_rate=5,
                             resolution=180),
        desired_audio=AudioQoS(grade=AudioGrade.CD, language=Language.NONE),
        worst_audio=AudioQoS(grade=AudioGrade.TELEPHONE,
                             language=Language.NONE),
        max_cost=30.0,
    )
    profile = type(profile)(
        name=profile.name,
        desired=profile.desired,
        worst=profile.worst,
        importance=profile.importance.with_media_weight("audio", 3.0),
    )
    viewer = ClientMachine("conference-room", access_point="viewer-net")

    print(f"joining a {len(SITES)}-site conference "
          f"({CALL_LENGTH_S / 60:.0f} minutes):\n")
    sessions = {}
    for site in SITES:
        result = manager.negotiate(f"conf.{site}", profile, viewer)
        offer = result.user_offer
        print(f"  {site:<10} {result.status}  video {offer.video}  "
              f"audio {offer.audio}  {offer.cost}")
        sessions[site] = runtime.start_session(result, profile, viewer)

    # Minute 3: the backbone link to Vancouver's MCU browns out for 90 s.
    plan = FaultPlan(
        (FaultSpec(FaultKind.LINK_FLAP, "L-vancouver", 180.0, 90.0, 0.999),)
    )
    FaultInjector(plan).install(servers, transport).arm(loop)
    loop.run()

    print("\ncall ended; per-leg record:")
    for site, session in sessions.items():
        record = session.record
        print(f"  {site:<10} {session.state.value:<10} "
              f"adaptations={record.adaptations} "
              f"interruption={record.total_interruption_s:.1f}s "
              f"degraded={record.degraded_time_s:.1f}s")
    assert transport.flow_count == 0


if __name__ == "__main__":
    main()
