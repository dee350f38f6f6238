"""Relational-style schema records for the metadata database.

The U. Alberta MM database [Vit 95] stored the logical design of the
news-on-demand data: documents, their monomedia, the physical variants
with format/size/location, and the block-length statistics the QoS
mapping (§6) reads.  We mirror that as flat, serializable records keyed
by ids — the object model in :mod:`repro.documents` is assembled *from*
these records, and decomposed back *into* them on insert.

Keeping a record layer distinct from the object model lets queries
over variants run without walking document trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..documents.media import Codecs, ColorMode, Language, Medium
from ..documents.monomedia import BlockStats, Variant
from ..documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    MediaQoS,
    TextQoS,
    VideoQoS,
)
from ..util.errors import PersistenceError

__all__ = [
    "DocumentRecord",
    "MonomediaRecord",
    "VariantRecord",
    "qos_to_record",
    "qos_from_record",
    "sync_to_record",
    "sync_from_record",
]


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    """One row of the document relation."""

    document_id: str
    title: str
    monomedia_ids: tuple[str, ...]
    copyright_cents: int
    sync_blob: dict  # opaque, serialized sync constraints


@dataclass(frozen=True, slots=True)
class MonomediaRecord:
    """One row of the monomedia relation."""

    monomedia_id: str
    document_id: str
    medium: str
    title: str
    duration_s: float


@dataclass(frozen=True, slots=True)
class VariantRecord:
    """One row of the variant relation — the §2 static parameters plus
    the §6 block statistics."""

    variant_id: str
    monomedia_id: str
    codec: str
    qos: dict
    size_bits: float
    max_block_bits: float
    avg_block_bits: float
    blocks_per_second: float
    server_id: str
    duration_s: float

    @classmethod
    def from_variant(cls, variant: Variant) -> "VariantRecord":
        return cls(
            variant_id=variant.variant_id,
            monomedia_id=variant.monomedia_id,
            codec=variant.codec.name,
            qos=qos_to_record(variant.qos),
            size_bits=variant.size_bits,
            max_block_bits=variant.block_stats.max_block_bits,
            avg_block_bits=variant.block_stats.avg_block_bits,
            blocks_per_second=variant.block_stats.blocks_per_second,
            server_id=variant.server_id,
            duration_s=variant.duration_s,
        )

    def to_variant(self) -> Variant:
        return Variant(
            variant_id=self.variant_id,
            monomedia_id=self.monomedia_id,
            codec=Codecs.by_name(self.codec),
            qos=qos_from_record(self.qos),
            size_bits=self.size_bits,
            block_stats=BlockStats(
                max_block_bits=self.max_block_bits,
                avg_block_bits=self.avg_block_bits,
                blocks_per_second=self.blocks_per_second,
            ),
            server_id=self.server_id,
            duration_s=self.duration_s,
        )


def qos_to_record(qos: MediaQoS) -> dict:
    """Serialize a QoS point to a plain dict with a medium tag."""
    record: dict = {"medium": qos.medium.value}
    for name, value in qos.qos_items():
        if isinstance(value, (ColorMode,)):
            record[name] = value.name.lower()
        elif isinstance(value, Language):
            record[name] = value.value
        elif hasattr(value, "name"):  # AudioGrade
            record[name] = value.name.lower()
        else:
            record[name] = value
    return record


def qos_from_record(record: dict) -> MediaQoS:
    """Rebuild a QoS point from its serialized form."""
    data = dict(record)
    try:
        medium = Medium.parse(data.pop("medium"))
    except KeyError:
        raise PersistenceError(f"qos record missing 'medium': {record!r}") from None
    classes = {
        Medium.VIDEO: VideoQoS,
        Medium.AUDIO: AudioQoS,
        Medium.IMAGE: ImageQoS,
        Medium.TEXT: TextQoS,
        Medium.GRAPHIC: GraphicQoS,
    }
    try:
        return classes[medium](**data)
    except TypeError as exc:
        raise PersistenceError(
            f"malformed qos record for {medium.value}: {record!r} ({exc})"
        ) from None


def sync_to_record(sync) -> dict:
    """Serialize :class:`~repro.documents.synchronization.SyncConstraints`."""
    from ..documents.synchronization import SyncConstraints  # local: avoid cycle

    assert isinstance(sync, SyncConstraints)
    record: dict = {
        "temporal": [
            {
                "kind": rel.kind.value,
                "first": rel.first,
                "second": rel.second,
                "offset_s": rel.offset_s,
            }
            for rel in sync.temporal
        ]
    }
    if sync.spatial is not None:
        record["spatial"] = {
            name: {
                "x": region.x,
                "y": region.y,
                "width": region.width,
                "height": region.height,
            }
            for name, region in sync.spatial.regions.items()
        }
    return record


def sync_from_record(record: dict):
    """Rebuild sync constraints from their serialized form."""
    from ..documents.synchronization import (
        ScreenRegion,
        SpatialLayout,
        SyncConstraints,
        TemporalRelation,
        TemporalRelationKind,
    )

    temporal = tuple(
        TemporalRelation(
            kind=TemporalRelationKind(item["kind"]),
            first=item["first"],
            second=item["second"],
            offset_s=item.get("offset_s", 0.0),
        )
        for item in record.get("temporal", ())
    )
    spatial = None
    if "spatial" in record:
        spatial = SpatialLayout(
            {
                name: ScreenRegion(**region)
                for name, region in record["spatial"].items()
            }
        )
    return SyncConstraints(temporal=temporal, spatial=spatial)
