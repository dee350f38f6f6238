"""Step 1's local offer against an eager reference.

Step 1 tests the client first and builds the local offer only when the
request fails: only FAILEDWITHLOCALOFFER returns it.  Over clients with
black-and-white screens, low frame-rate ceilings, narrow screens and no
audio output, profiles mixing all five media and documents whose
spatial layout may not fit, every FAILEDWITHLOCALOFFER verdict's
``user_offer`` and ``local_violations`` equal what ``check_local`` per
medium plus ``MMProfile(...)`` build eagerly, and every supported
request gets the verdict the reference walk gives it.  ``MMProfile``'s
media walk and its wrong-type ``ProfileError`` texts are pinned too.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.core.profiles import MMProfile, UserProfile
from repro.core.status import NegotiationStatus
from repro.documents.builder import DocumentBuilder, MonomediaBuilder
from repro.documents.media import (
    AudioGrade,
    Codecs,
    ColorMode,
    Language,
    Medium,
)
from repro.documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    TextQoS,
    VideoQoS,
)
from repro.documents.synchronization import ScreenRegion
from repro.util.errors import ProfileError

from ..oracle import reference_negotiate
from .strategies import GRID_SERVERS, grid_manager

COLORS = st.sampled_from(list(ColorMode))
FRAME_RATES = st.sampled_from([1, 5, 10, 15, 25, 30, 60])
RESOLUTIONS = st.sampled_from([10, 160, 320, 480, 720, 1280, 1920])
LANGUAGES = st.sampled_from([Language.ENGLISH, Language.FRENCH])

CLIENTS = st.builds(
    ClientMachine,
    client_id=st.just("c"),
    screen_width=st.sampled_from([160, 320, 640, 1040, 1280, 1920]),
    screen_height=st.sampled_from([120, 240, 540, 1024]),
    screen_color=COLORS,
    max_frame_rate=st.sampled_from([1, 5, 10, 15, 30, 60]),
    audio_output=st.booleans(),
    access_point=st.just("client-net"),
)

POINTS = {
    Medium.VIDEO: st.builds(
        VideoQoS, color=COLORS, frame_rate=FRAME_RATES, resolution=RESOLUTIONS
    ),
    Medium.AUDIO: st.builds(
        AudioQoS, grade=st.sampled_from(list(AudioGrade)), language=LANGUAGES
    ),
    Medium.IMAGE: st.builds(ImageQoS, color=COLORS, resolution=RESOLUTIONS),
    Medium.TEXT: st.builds(TextQoS, language=LANGUAGES),
    Medium.GRAPHIC: st.builds(
        GraphicQoS, color=COLORS, resolution=RESOLUTIONS
    ),
}


@st.composite
def profiles(draw):
    """A profile over a non-empty mix of the five media; the worst
    bound equals the desired one, so the request is always valid."""
    media = draw(
        st.lists(st.sampled_from(list(Medium)), min_size=1, unique=True)
    )
    points = {medium.value: draw(POINTS[medium]) for medium in media}
    cost = draw(st.sampled_from([5.0, 50.0, 500.0]))
    desired = MMProfile(cost=cost, **points)
    return UserProfile(name="mix", desired=desired, worst=desired)


# One variant per medium that the standard decoders read, each on its
# own server, at the qualities a profile may ask for.
VARIANTS = {
    Medium.VIDEO: (
        Codecs.MPEG1,
        VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720),
    ),
    Medium.AUDIO: (
        Codecs.MPEG_AUDIO,
        AudioQoS(grade=AudioGrade.CD, language=Language.ENGLISH),
    ),
    Medium.IMAGE: (
        Codecs.JPEG, ImageQoS(color=ColorMode.COLOR, resolution=720)
    ),
    Medium.TEXT: (Codecs.HTML, TextQoS(language=Language.FRENCH)),
    Medium.GRAPHIC: (
        Codecs.CGM, GraphicQoS(color=ColorMode.GREY, resolution=480)
    ),
}


@st.composite
def documents(draw):
    """All five media; a drawn region (or none) sets the layout the
    client's screen must hold."""
    builder = DocumentBuilder("doc.mix", "mixed media")
    for index, (medium, (codec, qos)) in enumerate(VARIANTS.items()):
        mono = MonomediaBuilder(
            f"doc.mix.{medium.value}", medium, medium.value, 30.0
        )
        mono.add_variant(codec, qos, GRID_SERVERS[index % len(GRID_SERVERS)])
        builder.add(mono)
    region = draw(st.one_of(st.none(), st.builds(
        ScreenRegion,
        x=st.sampled_from([0, 320]),
        y=st.just(0),
        width=st.sampled_from([160, 640, 1280]),
        height=st.sampled_from([120, 540, 900]),
    )))
    if region is not None:
        builder.place("doc.mix.video", region)
    return builder.copyright(0.25).build()


def eager_local_offer(document, profile, client):
    """Step 1 as it was written before the lazy local offer: one
    ``check_local`` per constrained medium, the layout test, and the
    local offer built whatever the outcome."""
    violations = {}
    best = {}
    for medium in Medium:
        requirement = getattr(profile.desired, medium.value)
        if requirement is None:
            continue
        checked = client.check_local(requirement)
        if not checked.supported:
            violations[medium] = checked.violations
        best[medium.value] = checked.local_best
    layout = document.sync.spatial
    if layout is not None and not client.fits_layout(*layout.bounding_box()):
        violations.setdefault(Medium.VIDEO, ("layout",))
    offer = MMProfile(
        cost=profile.desired.cost, time=profile.desired.time, **best
    )
    return violations, offer


def signature(result):
    chosen = result.chosen.offer.offer_id if result.chosen else None
    return result.status, chosen, result.attempts


class TestLocalOfferEquivalence:
    @given(documents(), profiles(), CLIENTS)
    @settings(max_examples=200, deadline=None)
    def test_verdicts_match_the_eager_reference(
        self, document, profile, client
    ):
        manager = grid_manager([document], (8, 8, 8))
        result = manager.negotiate(document.document_id, profile, client)
        violations, offer = eager_local_offer(document, profile, client)
        event("local offer" if violations else "supported")
        if violations:
            assert result.status is NegotiationStatus.FAILED_WITH_LOCAL_OFFER
            assert result.user_offer == offer
            assert list(result.local_violations.items()) == list(
                violations.items()
            )
            return
        assert result.status is not NegotiationStatus.FAILED_WITH_LOCAL_OFFER
        assert result.local_violations == {}
        twin = grid_manager([document], (8, 8, 8))
        expected = reference_negotiate(
            twin, document.document_id, profile, client
        )
        assert signature(result) == signature(expected)


class TestMediaFieldTable:
    @given(profiles())
    @settings(max_examples=100, deadline=None)
    def test_media_walk_is_enum_order(self, profile):
        desired = profile.desired
        present = tuple(
            medium for medium in Medium
            if getattr(desired, medium.value) is not None
        )
        assert desired.media_present() == present
        assert list(desired.qos_points()) == [
            (medium, getattr(desired, medium.value)) for medium in present
        ]

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("video", TextQoS(language=Language.FRENCH),
             "video entry must be VideoQoS, got TextQoS"),
            ("audio", VideoQoS(color=ColorMode.GREY, frame_rate=5,
                               resolution=320),
             "audio entry must be AudioQoS, got VideoQoS"),
            ("image", GraphicQoS(color=ColorMode.GREY, resolution=320),
             "image entry must be ImageQoS, got GraphicQoS"),
            ("text", "fr", "text entry must be TextQoS, got str"),
            ("graphic", ImageQoS(color=ColorMode.GREY, resolution=320),
             "graphic entry must be GraphicQoS, got ImageQoS"),
        ],
    )
    def test_wrong_type_messages(self, field, value, message):
        with pytest.raises(ProfileError) as raised:
            MMProfile(**{field: value})
        assert str(raised.value) == message
