"""Profile manager: the GUI's Save / Save as / delete / default ops."""

import pytest

from repro.core.profile_manager import (
    ProfileManager,
    make_profile,
    standard_profiles,
)
from repro.documents.media import ColorMode
from repro.documents.quality import VideoQoS
from repro.util.errors import DuplicateKeyError, NotFoundError, ProfileError

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)


class TestMakeProfile:
    def test_worst_defaults_to_desired(self):
        profile = make_profile("p", desired_video=TV)
        assert profile.worst.video == TV

    def test_cost_applies_to_both(self):
        profile = make_profile("p", desired_video=TV, max_cost=7.5)
        assert profile.desired.cost.cents == 750
        assert profile.worst.cost.cents == 750

    def test_no_media_rejected(self):
        with pytest.raises(ProfileError):
            make_profile("p")

    def test_extra_media(self):
        from repro.documents.quality import ImageQoS

        image = ImageQoS(color=ColorMode.COLOR, resolution=360)
        profile = make_profile("p", desired_video=TV, desired_image=image)
        assert profile.desired.image == image


class TestStandardProfiles:
    def test_names(self):
        names = {p.name for p in standard_profiles()}
        assert {"premium", "balanced", "economy", "audio-first"} <= names

    def test_premium_ignores_cost(self):
        premium = next(p for p in standard_profiles() if p.name == "premium")
        assert premium.importance.cost_per_dollar == 0.0

    def test_economy_cost_sensitive(self):
        economy = next(p for p in standard_profiles() if p.name == "economy")
        assert economy.importance.cost_per_dollar > 1.0

    def test_audio_first_weighting(self):
        from repro.documents.media import Medium

        audio_first = next(
            p for p in standard_profiles() if p.name == "audio-first"
        )
        assert audio_first.importance.media_weight[Medium.AUDIO] > 1.0


class TestProfileManager:
    def test_populated_by_default(self):
        manager = ProfileManager()
        assert len(manager) == 4
        assert manager.default_name == "premium"

    def test_save_as_new(self):
        manager = ProfileManager()
        manager.save_as(make_profile("custom", desired_video=TV))
        assert "custom" in manager

    def test_save_as_duplicate_rejected(self):
        manager = ProfileManager()
        with pytest.raises(DuplicateKeyError):
            manager.save_as(make_profile("balanced", desired_video=TV))

    def test_save_overwrites(self):
        manager = ProfileManager()
        replacement = make_profile("balanced", desired_video=TV, max_cost=1.0)
        manager.save(replacement)
        assert manager.get("balanced").max_cost.cents == 100

    def test_save_unknown_rejected(self):
        manager = ProfileManager()
        with pytest.raises(NotFoundError):
            manager.save(make_profile("ghost", desired_video=TV))

    def test_delete(self):
        manager = ProfileManager()
        manager.delete("economy")
        assert "economy" not in manager
        with pytest.raises(NotFoundError):
            manager.delete("economy")

    def test_delete_default_moves_default(self):
        manager = ProfileManager()
        manager.delete("premium")
        assert manager.default_name != "premium"
        assert manager.default is not None

    def test_empty_manager(self):
        manager = ProfileManager()
        for name in manager.names():
            manager.delete(name)
        assert len(manager) == 0
        with pytest.raises(NotFoundError):
            _ = manager.default

    def test_iteration(self):
        manager = ProfileManager()
        assert [p.name for p in manager] == list(manager.names())
