"""Spatial/temporal synchronization constraints (paper §2)."""

import pytest

from repro.documents.synchronization import (
    ScreenRegion,
    SpatialLayout,
    SyncConstraints,
    TemporalRelation,
    TemporalRelationKind,
)
from repro.util.errors import SynchronizationError


class TestTemporalRelation:
    def test_self_relation_rejected(self):
        with pytest.raises(SynchronizationError):
            TemporalRelation(TemporalRelationKind.PARALLEL, "a", "a")

    def test_parallel_offset_rejected(self):
        with pytest.raises(SynchronizationError):
            TemporalRelation(TemporalRelationKind.PARALLEL, "a", "b", 5.0)

    def test_sequential_offset_ok(self):
        rel = TemporalRelation(TemporalRelationKind.SEQUENTIAL, "a", "b", 2.0)
        assert rel.offset_s == 2.0


class TestScreenRegion:
    def test_overlap_detection(self):
        a = ScreenRegion(0, 0, 100, 100)
        b = ScreenRegion(50, 50, 100, 100)
        c = ScreenRegion(100, 0, 50, 50)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # edge-adjacent is not overlap


class TestSpatialLayout:
    def test_overlapping_regions_rejected(self):
        with pytest.raises(SynchronizationError):
            SpatialLayout({
                "a": ScreenRegion(0, 0, 100, 100),
                "b": ScreenRegion(10, 10, 100, 100),
            })

    def test_bounding_box(self):
        layout = SpatialLayout({
            "a": ScreenRegion(0, 0, 100, 100),
            "b": ScreenRegion(100, 0, 200, 50),
        })
        assert layout.bounding_box() == (300, 100)

    def test_empty_bounding_box(self):
        assert SpatialLayout({}).bounding_box() == (0, 0)


class TestSyncConstraints:
    def test_validates_known_ids(self):
        sync = SyncConstraints(
            temporal=(TemporalRelation(TemporalRelationKind.PARALLEL, "a", "b"),)
        )
        sync.validate_against(["a", "b"])
        with pytest.raises(SynchronizationError):
            sync.validate_against(["a"])

    def test_cycle_rejected(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.SEQUENTIAL, "a", "b"),
                TemporalRelation(TemporalRelationKind.SEQUENTIAL, "b", "a"),
            )
        )
        with pytest.raises(SynchronizationError, match="cycle"):
            sync.validate_against(["a", "b"])

    def test_spatial_unknown_id_rejected(self):
        sync = SyncConstraints(
            spatial=SpatialLayout({"ghost": ScreenRegion(0, 0, 10, 10)})
        )
        with pytest.raises(SynchronizationError):
            sync.validate_against(["a"])

    def test_start_times_parallel(self):
        sync = SyncConstraints(
            temporal=(TemporalRelation(TemporalRelationKind.PARALLEL, "a", "b"),)
        )
        starts = sync.start_times({"a": 10.0, "b": 5.0})
        assert starts == {"a": 0.0, "b": 0.0}

    def test_start_times_sequential_with_offset(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.SEQUENTIAL, "a", "b", 2.0),
            )
        )
        starts = sync.start_times({"a": 10.0, "b": 5.0})
        assert starts["b"] == pytest.approx(12.0)

    def test_start_times_overlap(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.OVERLAPS, "a", "b", 3.0),
            )
        )
        starts = sync.start_times({"a": 10.0, "b": 5.0})
        assert starts["b"] == pytest.approx(3.0)

    def test_start_times_chain(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.SEQUENTIAL, "a", "b"),
                TemporalRelation(TemporalRelationKind.SEQUENTIAL, "b", "c"),
            )
        )
        starts = sync.start_times({"a": 10.0, "b": 5.0, "c": 1.0})
        assert starts == {"a": 0.0, "b": 10.0, "c": 15.0}
