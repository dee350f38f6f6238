"""MM profiles and user profiles (paper §3)."""

import pytest

from repro.core.profiles import MMProfile, TimeProfile, UserProfile
from repro.documents.media import AudioGrade, ColorMode, Language, Medium
from repro.documents.quality import AudioQoS, TextQoS, VideoQoS
from repro.util.errors import ProfileError
from repro.util.units import dollars

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)
LOW = VideoQoS(color=ColorMode.GREY, frame_rate=10, resolution=360)
CD = AudioQoS(grade=AudioGrade.CD, language=Language.ENGLISH)
PHONE = AudioQoS(grade=AudioGrade.TELEPHONE, language=Language.ENGLISH)


class TestMMProfile:
    def test_media_present(self):
        profile = MMProfile(video=TV, audio=CD, cost=dollars(5))
        assert set(profile.media_present()) == {Medium.VIDEO, Medium.AUDIO}

    def test_qos_for(self):
        profile = MMProfile(video=TV)
        assert profile.qos_for("video") == TV
        assert profile.qos_for("audio") is None

    def test_wrong_type_rejected(self):
        with pytest.raises(ProfileError):
            MMProfile(video=CD)

    def test_qos_satisfied_by(self):
        bound = MMProfile(video=LOW, audio=PHONE)
        rich = MMProfile(video=TV, audio=CD)
        assert bound.qos_satisfied_by(rich)
        assert not rich.qos_satisfied_by(bound)

    def test_missing_medium_fails_satisfaction(self):
        bound = MMProfile(video=LOW, audio=PHONE)
        video_only = MMProfile(video=TV)
        assert not bound.qos_satisfied_by(video_only)

    def test_qos_violations_named(self):
        bound = MMProfile(video=TV, audio=CD)
        poor = MMProfile(video=LOW, audio=PHONE)
        violations = bound.qos_violations(poor)
        assert set(violations[Medium.VIDEO]) == {
            "color", "frame_rate", "resolution",
        }
        assert "grade" in violations[Medium.AUDIO]

    def test_describe_mentions_cost(self):
        assert "$4.00" in MMProfile(video=TV, cost=dollars(4)).describe()


class TestTimeProfile:
    def test_defaults(self):
        time = TimeProfile()
        assert time.choice_period_s > 0
        assert time.delivery_deadline_s > 0

    def test_validation(self):
        with pytest.raises(Exception):
            TimeProfile(choice_period_s=0)


class TestUserProfile:
    def test_valid_construction(self):
        profile = UserProfile(
            name="u",
            desired=MMProfile(video=TV, cost=dollars(6)),
            worst=MMProfile(video=LOW, cost=dollars(6)),
        )
        assert profile.max_cost == dollars(6)
        assert profile.media() == (Medium.VIDEO,)

    def test_desired_must_dominate_worst(self):
        with pytest.raises(ProfileError):
            UserProfile(
                name="u",
                desired=MMProfile(video=LOW),
                worst=MMProfile(video=TV),
            )

    def test_media_must_match(self):
        with pytest.raises(ProfileError):
            UserProfile(
                name="u",
                desired=MMProfile(video=TV, audio=CD),
                worst=MMProfile(video=LOW),
            )

    def test_max_cost_is_larger_bound(self):
        profile = UserProfile(
            name="u",
            desired=MMProfile(video=TV, cost=dollars(8)),
            worst=MMProfile(video=LOW, cost=dollars(5)),
        )
        assert profile.max_cost == dollars(8)

    def test_equal_desired_and_worst_allowed(self):
        # §5.2.1: "the desired and the worst acceptable values are the
        # same".
        UserProfile(
            name="u", desired=MMProfile(video=TV), worst=MMProfile(video=TV)
        )

    def test_choice_period_passthrough(self):
        profile = UserProfile(
            name="u",
            desired=MMProfile(video=TV, time=TimeProfile(choice_period_s=30)),
            worst=MMProfile(video=TV),
        )
        assert profile.choice_period_s == 30

    def test_language_bound_respected(self):
        # A French-desiring profile cannot accept an English-only worst.
        with pytest.raises(ProfileError):
            UserProfile(
                name="u",
                desired=MMProfile(text=TextQoS(language=Language.FRENCH)),
                worst=MMProfile(text=TextQoS(language=Language.ENGLISH)),
            )
