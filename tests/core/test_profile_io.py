"""Profile persistence: the GUI's Save across sessions."""

from dataclasses import replace

import pytest

from repro.core.importance import paper_example_importance
from repro.core.preferences import SecurityLevel, UserPreferences
from repro.core.profile_io import (
    dump_profiles,
    load_profiles,
    profile_from_record,
    profile_to_record,
    read_profiles,
    save_profiles,
)
from repro.core.profile_manager import ProfileManager, standard_profiles
from repro.util.errors import PersistenceError, ProfileError


class TestProfileRecord:
    @pytest.mark.parametrize("profile", standard_profiles(),
                             ids=lambda p: p.name)
    def test_roundtrip_stock_profiles(self, profile):
        restored = profile_from_record(profile_to_record(profile))
        assert restored.name == profile.name
        assert restored.desired == profile.desired
        assert restored.worst == profile.worst
        assert restored.max_cost == profile.max_cost

    def test_importance_roundtrip_exact(self):
        base = standard_profiles()[0]
        profile = replace(base, importance=paper_example_importance())
        restored = profile_from_record(profile_to_record(profile))
        importance = restored.importance
        # The settings that make the paper examples work must survive.
        assert importance.frame_rate.value(25) == 9.0
        assert importance.frame_rate.value(15) == 5.0  # exact override
        assert importance.cost_per_dollar == 4.0

    def test_preferences_roundtrip(self):
        base = standard_profiles()[0]
        prefs = UserPreferences(
            server_preference={"mirror": 2.5, "cdn": -1.0},
            min_security=SecurityLevel.PROTECTED,
        )
        profile = replace(base, preferences=prefs)
        restored = profile_from_record(profile_to_record(profile))
        assert restored.preferences.server_preference == {
            "mirror": 2.5, "cdn": -1.0,
        }
        assert restored.preferences.min_security is SecurityLevel.PROTECTED

    def test_media_weights_roundtrip(self):
        audio_first = next(
            p for p in standard_profiles() if p.name == "audio-first"
        )
        restored = profile_from_record(profile_to_record(audio_first))
        from repro.documents.media import Medium

        assert restored.importance.media_weight[Medium.AUDIO] == 3.0

    def test_missing_field_rejected(self):
        with pytest.raises(PersistenceError):
            profile_from_record({"name": "x"})

    def test_record_is_json_plain(self):
        import json

        for profile in standard_profiles():
            json.dumps(profile_to_record(profile))


class TestManagerStore:
    def test_dump_load_roundtrip(self):
        manager = ProfileManager()
        manager.set_default("economy")
        restored = load_profiles(dump_profiles(manager))
        assert restored.names() == manager.names()
        assert restored.default_name == "economy"

    def test_file_roundtrip(self, tmp_path):
        manager = ProfileManager()
        path = save_profiles(manager, tmp_path / "profiles.json")
        restored = read_profiles(path)
        assert len(restored) == len(manager)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            read_profiles(tmp_path / "absent.json")

    def test_bad_version(self):
        with pytest.raises(PersistenceError):
            load_profiles('{"schema_version": 99, "profiles": []}')

    def test_invalid_json(self):
        with pytest.raises(PersistenceError):
            load_profiles("{nope")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_importance_rejected(self, token):
        """``json`` reads ``NaN`` and ``Infinity`` as floats; a store
        carrying one must not load into a profile whose offers cannot
        be ordered."""
        import json

        text = dump_profiles(ProfileManager())
        assert load_profiles(text).names()  # the untouched store loads
        envelope = json.loads(text)
        for poison in (
            lambda imp: imp["frame_rate"]["anchors"].update({"25.0": "@"}),
            lambda imp: imp["resolution"]["overrides"].update({"512.0": "@"}),
            lambda imp: imp["color"].update({"grey": "@"}),
            lambda imp: imp["media_weight"].update({"audio": "@"}),
        ):
            poisoned = json.loads(json.dumps(envelope))
            poison(poisoned["profiles"][0]["importance"])
            with pytest.raises(ProfileError, match="finite"):
                load_profiles(json.dumps(poisoned).replace('"@"', token))

    def test_restored_profiles_negotiate(
        self, manager, document, client, tmp_path
    ):
        """The persisted profile drives a real negotiation identically."""
        store = ProfileManager()
        path = save_profiles(store, tmp_path / "p.json")
        restored = read_profiles(path).get("balanced")
        result = manager.negotiate(document.document_id, restored, client)
        assert result.succeeded
        result.commitment.release()
