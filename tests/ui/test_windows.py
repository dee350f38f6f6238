"""The §8 GUI windows rendered from live objects."""

import pytest

from repro.core.profile_manager import ProfileManager, standard_profiles
from repro.documents.media import Medium
from repro.ui.windows import (
    audio_profile_window,
    cost_profile_window,
    information_window,
    main_window,
    profile_component_window,
    video_profile_window,
)


@pytest.fixture
def profiles():
    return ProfileManager()


class TestMainWindow:
    def test_lists_profiles_and_buttons(self, profiles):
        window = main_window(profiles)
        for name in profiles.names():
            assert name in window
        for button in ("OK", "Edit", "Delete", "EXIT"):
            assert button in window

    def test_default_starred(self):
        # The first profile a manager is given is its default.
        manager = ProfileManager()
        assert manager.default_name == standard_profiles()[0].name
        window = main_window(manager)
        line = next(l for l in window.splitlines() if manager.default_name in l)
        assert "*" in line


class TestProfileComponentWindow:
    def test_component_buttons(self, profiles):
        window = profile_component_window(profiles.get("balanced"))
        for label in ("video", "audio", "time", "cost"):
            assert label in window
        assert "Save as" in window

    def test_violated_buttons_marked(self, profiles):
        window = profile_component_window(
            profiles.get("balanced"),
            violated_media={Medium.VIDEO},
        )
        assert "[!video!]" in window
        assert "[ cost ]" in window
        assert "[ audio ]" in window


class TestEditorWindows:
    def test_video_window_bars(self, profiles):
        window = video_profile_window(profiles.get("balanced"))
        assert "frame rate" in window and "resolution" in window
        assert "show example" in window

    def test_video_window_with_offer(self, profiles, manager, document, client):
        profile = profiles.get("balanced")
        result = manager.negotiate(document.document_id, profile, client)
        window = video_profile_window(profile, offer=result.user_offer)
        assert "o=" in window  # offered value on the scaling bar
        result.commitment.release()

    def test_video_window_without_video(self, profiles):
        from repro.core.profile_manager import make_profile
        from repro.documents.media import AudioGrade
        from repro.documents.quality import AudioQoS

        audio_only = make_profile(
            "a", desired_audio=AudioQoS(grade=AudioGrade.CD)
        )
        assert "no video constraints" in video_profile_window(audio_only)

    def test_audio_window(self, profiles):
        window = audio_profile_window(profiles.get("balanced"))
        assert "quality" in window and "language" in window

    def test_cost_window(self, profiles):
        window = cost_profile_window(profiles.get("balanced"))
        assert "max cost" in window and "importance" in window


class TestInformationWindow:
    def test_success_shows_offer_and_timer(self, manager, document,
                                           balanced_profile, client):
        result = manager.negotiate(document.document_id, balanced_profile, client)
        window = information_window(result)
        assert "SUCCEEDED" in window
        assert "press OK within" in window
        assert "$" in window
        result.commitment.release()

    def test_try_later_shows_status_only(self, manager, document,
                                         balanced_profile, client, topology):
        topology.link("L-client").set_congestion(1.0)
        result = manager.negotiate(document.document_id, balanced_profile, client)
        window = information_window(result)
        assert "FAILEDTRYLATER" in window
        assert "press OK within" not in window
