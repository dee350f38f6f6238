"""Disk model: round feasibility, admission closed form."""

import pytest

from repro.cmfs.disk import DiskModel
from repro.util.errors import ValidationError


@pytest.fixture
def disk():
    return DiskModel()  # defaults: 60 Mbps transfer, ~12.7 ms overhead


class TestRoundFeasibility:
    def test_empty_round_feasible(self, disk):
        result = disk.round_feasibility([])
        assert result.feasible and result.busy_s == 0.0

    def test_busy_time_composition(self, disk):
        result = disk.round_feasibility([6e6])
        transfer = 6e6 * disk.round_s / disk.transfer_rate_bps
        assert result.busy_s == pytest.approx(transfer + disk.overhead_s)

    def test_saturation(self, disk):
        # Fill the round with identical streams until infeasible.
        n = disk.max_streams_at_rate(6e6)
        assert disk.round_feasibility([6e6] * n).feasible
        assert not disk.round_feasibility([6e6] * (n + 1)).feasible

    def test_utilization_above_one_when_infeasible(self, disk):
        n = disk.max_streams_at_rate(6e6) + 2
        assert disk.round_feasibility([6e6] * n).disk_utilization > 1.0


class TestAdmission:
    def test_can_admit_matches_feasibility(self, disk):
        existing = [6e6] * 3
        assert disk.can_admit(existing, 6e6) == disk.round_feasibility(
            existing + [6e6]
        ).feasible

    def test_overhead_limits_many_slow_streams(self, disk):
        # Positioning overhead alone bounds the stream count: even 1 bps
        # streams cannot exceed round_s / overhead_s.
        cap = int(disk.round_s / disk.overhead_s)
        assert disk.max_streams_at_rate(1.0) == cap

    def test_faster_streams_fewer_slots(self, disk):
        assert disk.max_streams_at_rate(20e6) < disk.max_streams_at_rate(2e6)


class TestValidation:
    def test_overhead_exceeding_round_rejected(self):
        with pytest.raises(ValidationError):
            DiskModel(avg_seek_s=0.3, rotational_latency_s=0.3, round_s=0.5)

    def test_positive_parameters(self):
        with pytest.raises(ValidationError):
            DiskModel(transfer_rate_bps=0)
