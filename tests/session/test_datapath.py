"""Data-path simulation: rounds, buffers, stalls."""

import pytest

from repro.cmfs.disk import DiskModel
from repro.session.datapath import StreamDemand, simulate_rounds
from repro.util.errors import SimulationError


def demand(stream_id="s1", avg=4e6, peak=8e6, prebuffer=1.0):
    return StreamDemand(
        stream_id=stream_id, avg_bps=avg, max_bps=peak, prebuffer_s=prebuffer
    )


class TestStreamDemand:
    def test_peak_below_avg_rejected(self):
        with pytest.raises(SimulationError):
            StreamDemand("s", avg_bps=2e6, max_bps=1e6)


class TestFeasibleLoad:
    def test_admitted_load_is_smooth(self):
        disk = DiskModel()
        n = disk.max_streams_at_rate(8e6)  # worst-case admissible at peak
        demands = [demand(f"s{i}") for i in range(n)]
        reports = simulate_rounds(disk, demands, 120.0, rng=1)
        for report in reports.values():
            assert report.stall_s == 0.0, report
            assert report.infeasible_rounds == 0

    def test_delivery_tracks_demand(self):
        disk = DiskModel()
        reports = simulate_rounds(disk, [demand()], 120.0, rng=1)
        report = reports["s1"]
        # Delivered roughly avg_bps x duration (VBR noise averages out).
        assert report.delivered_bits == pytest.approx(4e6 * 120.0, rel=0.1)

    def test_deterministic_with_seed(self):
        disk = DiskModel()
        a = simulate_rounds(disk, [demand()], 60.0, rng=9)["s1"]
        b = simulate_rounds(disk, [demand()], 60.0, rng=9)["s1"]
        assert a.delivered_bits == b.delivered_bits
        assert a.stall_s == b.stall_s


class TestOverload:
    def test_oversubscription_stalls(self):
        disk = DiskModel()
        n = disk.max_streams_at_rate(6e6)
        demands = [demand(f"s{i}", avg=6e6, peak=9e6) for i in range(2 * n)]
        reports = simulate_rounds(disk, demands, 120.0, rng=1)
        stalled = [r for r in reports.values() if r.stall_s > 0]
        assert len(stalled) == len(demands)  # everyone suffers
        assert all(r.infeasible_rounds > 0 for r in reports.values())

    def test_stall_grows_with_overload(self):
        disk = DiskModel()
        def total_stall(count):
            demands = [demand(f"s{i}", avg=6e6, peak=9e6) for i in range(count)]
            reports = simulate_rounds(disk, demands, 60.0, rng=1)
            return sum(r.stall_s for r in reports.values())

        n = disk.max_streams_at_rate(6e6)
        assert total_stall(n) <= total_stall(2 * n) <= total_stall(3 * n)
        assert total_stall(3 * n) > 0


class TestValidation:
    def test_empty_demands_rejected(self):
        with pytest.raises(SimulationError):
            simulate_rounds(DiskModel(), [], 10.0)

    def test_prebuffer_delays_consumption(self):
        disk = DiskModel()
        long_pre = simulate_rounds(
            disk, [demand(prebuffer=10.0)], 30.0, rng=1
        )["s1"]
        short_pre = simulate_rounds(
            disk, [demand(prebuffer=0.5)], 30.0, rng=1
        )["s1"]
        assert long_pre.consumed_bits < short_pre.consumed_bits
