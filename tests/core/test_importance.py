"""Importance factors: interpolation, overrides, OIF composition (§5.2.2)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.importance import (
    ImportanceProfile,
    ScaleImportance,
    default_importance,
    paper_example_importance,
)
from repro.documents.media import (
    AudioGrade,
    ColorMode,
    Language,
    Medium,
)
from repro.documents.quality import AudioQoS, ImageQoS, TextQoS, VideoQoS
from repro.util.errors import ProfileError
from repro.util.units import dollars

from ..properties.strategies import with_override

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)


class TestScaleImportance:
    def test_anchor_values_exact(self):
        scale = ScaleImportance(anchors={1.0: 1.0, 25.0: 9.0, 60.0: 10.0})
        assert scale.value(1) == 1.0
        assert scale.value(25) == 9.0
        assert scale.value(60) == 10.0

    def test_linear_interpolation(self):
        # §5.2.2(a): "the importance increases (or decreases) linearly
        # from frozen rate to TV rate, and from TV rate to HDTV rate".
        scale = ScaleImportance(anchors={1.0: 1.0, 25.0: 9.0, 60.0: 10.0})
        assert scale.value(13) == pytest.approx(1 + (12 / 24) * 8)
        assert scale.value(42.5) == pytest.approx(9 + (17.5 / 35) * 1)

    def test_clamped_outside_anchors(self):
        scale = ScaleImportance(anchors={10.0: 2.0, 20.0: 4.0})
        assert scale.value(5) == 2.0
        assert scale.value(100) == 4.0

    def test_override_beats_interpolation(self):
        scale = ScaleImportance(
            anchors={1.0: 1.0, 25.0: 9.0}, overrides={15.0: 5.0}
        )
        assert scale.value(15) == 5.0
        assert scale.value(14) != 5.0

    def test_vectorized_matches_scalar(self):
        scale = ScaleImportance(
            anchors={1.0: 1.0, 25.0: 9.0, 60.0: 10.0}, overrides={15.0: 5.0}
        )
        # np.interp is the oracle the scalar interpolation must equal
        # exactly; the override wins where it matches.
        xs = np.array([1, 5, 15, 25, 30, 60], dtype=float)
        vectorized = np.interp(xs, [1.0, 25.0, 60.0], [1.0, 9.0, 10.0])
        vectorized[xs == 15.0] = 5.0
        scalar = [scale.value(x) for x in xs]
        assert vectorized.tolist() == scalar

    def test_empty_anchors_rejected(self):
        with pytest.raises(ProfileError):
            ScaleImportance(anchors={})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tables_rejected(self, bad):
        # A NaN importance becomes a NaN OIF, on which neither the
        # stream's heap key nor the lexsort is an order.
        with pytest.raises(ProfileError, match="finite"):
            ScaleImportance(anchors={1.0: 1.0, bad: 2.0})
        with pytest.raises(ProfileError, match="finite"):
            ScaleImportance(anchors={1.0: 1.0, 10.0: bad})
        with pytest.raises(ProfileError, match="finite"):
            ScaleImportance(anchors={1.0: 1.0}, overrides={bad: 2.0})
        with pytest.raises(ProfileError, match="finite"):
            ScaleImportance(anchors={1.0: 1.0}, overrides={5.0: bad})


class TestQoSImportance:
    def test_video_sums_parameters(self):
        importance = paper_example_importance()
        # color 9 + 25 f/s 9 + TV resolution 9 = 27 (the offer4 value).
        assert importance.qos_importance(TV) == pytest.approx(27.0)

    def test_audio_grade_plus_language(self):
        importance = default_importance().with_language(Language.FRENCH, 3.0)
        qos = AudioQoS(grade=AudioGrade.CD, language=Language.FRENCH)
        expected = importance.audio_grade[AudioGrade.CD] + 3.0
        assert importance.qos_importance(qos) == pytest.approx(expected)

    def test_image_uses_color_and_resolution(self):
        importance = default_importance()
        qos = ImageQoS(color=ColorMode.GREY, resolution=720)
        expected = importance.color[ColorMode.GREY] + importance.resolution.value(720)
        assert importance.qos_importance(qos) == pytest.approx(expected)

    def test_text_language_only(self):
        importance = default_importance().with_language(Language.ENGLISH, 2.0)
        assert importance.qos_importance(
            TextQoS(language=Language.ENGLISH)
        ) == pytest.approx(2.0)

    def test_media_weight_scales(self):
        # §3 example (2): "the audio is more important than the video".
        importance = default_importance().with_media_weight("audio", 3.0)
        qos = AudioQoS(grade=AudioGrade.CD, language=Language.NONE)
        base = default_importance().qos_importance(qos)
        assert importance.qos_importance(qos) == pytest.approx(3.0 * base)


class TestCostImportance:
    def test_product_rule(self):
        # §5.2.2(b): cost importance = (importance of 1 $) x cost.
        importance = paper_example_importance(cost_per_dollar=4.0)
        assert importance.cost_importance(dollars(2.5)) == pytest.approx(10.0)

    def test_zero_weight(self):
        importance = default_importance().with_cost_per_dollar(0.0)
        assert importance.cost_importance(dollars(100)) == 0.0


class TestOverallImportance:
    def test_subtraction(self):
        importance = paper_example_importance()
        oif = importance.overall_importance([TV], dollars(5))
        assert oif == pytest.approx(27.0 - 20.0)

    def test_sums_over_monomedia(self):
        importance = paper_example_importance()
        oif = importance.overall_importance([TV, TV], dollars(0))
        assert oif == pytest.approx(54.0)


class TestEditing:
    def test_missing_color_levels_rejected(self):
        with pytest.raises(ProfileError):
            ImportanceProfile(
                color={ColorMode.COLOR: 1.0},  # missing other levels
                frame_rate=ScaleImportance(anchors={1.0: 1.0}),
                resolution=ScaleImportance(anchors={10.0: 1.0}),
                audio_grade={AudioGrade.CD: 1.0},
                language={Language.NONE: 0.0},
                media_weight={},
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_factors_rejected(self, bad):
        importance = default_importance()
        with pytest.raises(ProfileError, match="finite"):
            replace(importance, color={**importance.color, ColorMode.COLOR: bad})
        with pytest.raises(ProfileError, match="finite"):
            importance.with_language(Language.FRENCH, bad)
        with pytest.raises(ProfileError, match="finite"):
            importance.with_media_weight("video", bad)
        with pytest.raises(ProfileError, match="finite"):
            with_override(importance, "frame_rate", 15, bad)
        with pytest.raises(ProfileError, match="finite"):
            replace(
                importance,
                audio_grade={**importance.audio_grade, AudioGrade.CD: bad},
            )

    def test_default_media_weights_filled(self):
        importance = default_importance()
        for medium in Medium:
            assert importance.media_weight[medium] == 1.0


DEFAULT_REPR = (
    "ImportanceProfile(color={<ColorMode.SUPER_COLOR: 3>: 10.0, "
    "<ColorMode.COLOR: 2>: 8.0, <ColorMode.GREY: 1>: 4.0, "
    "<ColorMode.BLACK_AND_WHITE: 0>: 1.0}, "
    "frame_rate=ScaleImportance(anchors={1.0: 1.0, 25.0: 8.0, 60.0: 10.0}, "
    "overrides={}), "
    "resolution=ScaleImportance(anchors={10.0: 1.0, 720.0: 8.0, "
    "1920.0: 10.0}, overrides={}), "
    "audio_grade={<AudioGrade.CD: 2>: 8.0, <AudioGrade.RADIO: 1>: 5.0, "
    "<AudioGrade.TELEPHONE: 0>: 2.0}, "
    "language={<Language.ENGLISH: 'en'>: 1.0, <Language.FRENCH: 'fr'>: 1.0, "
    "<Language.GERMAN: 'de'>: 1.0, <Language.SPANISH: 'es'>: 1.0, "
    "<Language.NONE: '--'>: 0.0}, "
    "media_weight={<Medium.VIDEO: 'video'>: 1.0, <Medium.AUDIO: 'audio'>: 1.0, "
    "<Medium.IMAGE: 'image'>: 1.0, <Medium.TEXT: 'text'>: 1.0, "
    "<Medium.GRAPHIC: 'graphic'>: 1.0}, cost_per_dollar=1.0)"
)


def tables_of(importance):
    return {
        "color": importance.color,
        "audio_grade": importance.audio_grade,
        "language": importance.language,
        "media_weight": importance.media_weight,
        "frame_rate.anchors": importance.frame_rate.anchors,
        "frame_rate.overrides": importance.frame_rate.overrides,
        "resolution.anchors": importance.resolution.anchors,
        "resolution.overrides": importance.resolution.overrides,
    }


class TestReadOnlyTables:
    """The tables feed a key taken once at construction, so none of
    them can change afterwards; everything else sees plain dicts."""

    @pytest.mark.parametrize(
        "name", sorted(tables_of(paper_example_importance()))
    )
    @pytest.mark.parametrize(
        "change",
        [
            lambda table, key: table.__setitem__(key, 3.0),
            lambda table, key: table.__delitem__(key),
            lambda table, key: table.update({key: 3.0}),
            lambda table, key: table.pop(key),
            lambda table, key: table.setdefault(key, 3.0),
            lambda table, key: table.clear(),
            lambda table, key: table.popitem(),
        ],
        ids=["assign", "del", "update", "pop", "setdefault", "clear", "popitem"],
    )
    def test_every_table_refuses_changes(self, name, change):
        importance = paper_example_importance()
        table = tables_of(importance)[name]
        before = dict(table)
        key = next(iter(table), 15.0)
        with pytest.raises(TypeError, match="read-only"):
            change(table, key)
        assert table == before

    def test_repr_is_a_plain_dicts(self):
        """Reprs feed ``importance_fingerprint`` and every batch class
        key, so they keep their bytes: no ``mappingproxy(...)``."""
        from repro.perf.fingerprint import importance_fingerprint

        assert repr(default_importance()) == DEFAULT_REPR
        assert "mappingproxy" not in repr(paper_example_importance())
        assert importance_fingerprint(default_importance()) == "6495892865053065"
        assert importance_fingerprint(paper_example_importance()) == (
            "419ebdb2104c702e"
        )

    def test_editors_and_equality_unchanged(self):
        base = default_importance()
        edited = (
            replace(base, color={**base.color, ColorMode.GREY: 5.0})
            .with_language(Language.FRENCH, 3.0)
            .with_media_weight("audio", 2.0)
        )
        edited = with_override(edited, "frame_rate", 15, 5.0)
        edited = with_override(edited, "resolution", 480, 6.0)
        assert edited.color[ColorMode.GREY] == 5.0
        assert edited.language[Language.FRENCH] == 3.0
        assert edited.media_weight[Medium.AUDIO] == 2.0
        assert edited.frame_rate.overrides == {15.0: 5.0}
        assert edited.resolution.overrides == {480.0: 6.0}
        assert base.color[ColorMode.GREY] == 4.0  # original untouched
        assert base == default_importance()
        assert edited != base
        assert base.color == dict(base.color)
        assert replace(base, color=dict(base.color)) == base

    def test_tables_key_is_content_not_identity(self):
        """Equal tables give equal keys whatever object holds them; the
        key separates ``-0.0`` from ``0.0`` and leaves the cost term
        out."""
        base = default_importance()
        assert default_importance() is not base
        assert default_importance().tables_key == base.tables_key
        assert base.with_cost_per_dollar(9.0).tables_key == base.tables_key
        zero = base.with_media_weight("video", 0.0)
        assert base.with_media_weight("video", -0.0).tables_key != (
            zero.tables_key
        )
        frame_rate = with_override(base, "frame_rate", 15, 5.0)
        assert frame_rate.tables_key != base.tables_key
        assert frame_rate.tables_key != (
            with_override(base, "resolution", 15, 5.0).tables_key
        )
