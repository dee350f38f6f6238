"""Record layer: QoS / sync / variant (de)serialization."""

import pytest

from repro.documents.media import AudioGrade, Codecs, ColorMode, Language
from repro.documents.monomedia import BlockStats, Variant
from repro.documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    TextQoS,
    VideoQoS,
)
from repro.documents.synchronization import (
    ScreenRegion,
    SpatialLayout,
    SyncConstraints,
    TemporalRelation,
    TemporalRelationKind,
)
from repro.metadata.schema import (
    VariantRecord,
    qos_from_record,
    qos_to_record,
    sync_from_record,
    sync_to_record,
)
from repro.util.errors import PersistenceError

ALL_QOS = [
    VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720),
    AudioQoS(grade=AudioGrade.CD, language=Language.FRENCH),
    ImageQoS(color=ColorMode.GREY, resolution=360),
    TextQoS(language=Language.ENGLISH),
    GraphicQoS(color=ColorMode.SUPER_COLOR, resolution=100),
]


class TestQoSRecords:
    @pytest.mark.parametrize("qos", ALL_QOS, ids=lambda q: type(q).__name__)
    def test_roundtrip(self, qos):
        assert qos_from_record(qos_to_record(qos)) == qos

    def test_record_is_json_plain(self):
        import json

        for qos in ALL_QOS:
            json.dumps(qos_to_record(qos))  # must not raise

    def test_missing_medium_rejected(self):
        with pytest.raises(PersistenceError):
            qos_from_record({"color": "grey"})

    def test_malformed_fields_rejected(self):
        with pytest.raises(PersistenceError):
            qos_from_record({"medium": "video", "nonsense": 1})


class TestSyncRecords:
    def test_roundtrip_full(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.SEQUENTIAL, "a", "b", 1.5),
                TemporalRelation(TemporalRelationKind.PARALLEL, "a", "c"),
            ),
            spatial=SpatialLayout({"a": ScreenRegion(0, 0, 10, 10)}),
        )
        assert sync_from_record(sync_to_record(sync)) == sync

    def test_roundtrip_empty(self):
        sync = SyncConstraints()
        assert sync_from_record(sync_to_record(sync)) == sync


class TestVariantRecord:
    def test_roundtrip(self):
        variant = Variant(
            variant_id="v1",
            monomedia_id="m1",
            codec=Codecs.MPEG1,
            qos=ALL_QOS[0],
            size_bits=1e8,
            block_stats=BlockStats(3e5, 1e5, 25.0),
            server_id="server-a",
            duration_s=120.0,
        )
        assert VariantRecord.from_variant(variant).to_variant() == variant
