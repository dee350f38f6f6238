"""Round scheduler: SCAN ordering, seek-cost advantage, stream management."""

import numpy as np
import pytest

from repro.cmfs.disk import DiskModel
from repro.cmfs.scheduler import RoundScheduler, SchedulingPolicy
from repro.util.errors import ServerError


@pytest.fixture
def scan():
    return RoundScheduler(DiskModel(), SchedulingPolicy.SCAN)


@pytest.fixture
def fcfs():
    return RoundScheduler(DiskModel(), SchedulingPolicy.FCFS)


def load(scheduler, positions):
    for i, pos in enumerate(positions):
        scheduler.add_stream(f"s{i}", 1e6, track_position=pos)


class TestStreamManagement:
    def test_add(self, scan):
        scan.add_stream("s1", 2e6)
        assert scan.stream_count == 1

    def test_duplicate_rejected(self, scan):
        scan.add_stream("s1", 2e6)
        with pytest.raises(ServerError):
            scan.add_stream("s1", 2e6)

    def test_rates(self, scan):
        scan.add_stream("s1", 2e6)
        scan.add_stream("s2", 3e6)
        assert sorted(scan.rates()) == [2e6, 3e6]


class TestPlanning:
    def test_scan_orders_by_position(self, scan):
        load(scan, [0.9, 0.1, 0.5])
        plan = scan.plan_round()
        assert plan.order == ("s1", "s2", "s0")

    def test_fcfs_keeps_arrival_order(self, fcfs):
        load(fcfs, [0.9, 0.1, 0.5])
        plan = fcfs.plan_round()
        assert plan.order == ("s0", "s1", "s2")

    def test_scan_never_costs_more_seek_than_fcfs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            positions = rng.random(6).tolist()
            scan = RoundScheduler(DiskModel(), SchedulingPolicy.SCAN)
            fcfs = RoundScheduler(DiskModel(), SchedulingPolicy.FCFS)
            load(scan, positions)
            load(fcfs, positions)
            assert scan.plan_round().seek_cost <= fcfs.plan_round().seek_cost + 1e-12

    def test_feasibility_reported(self, scan):
        for i in range(40):
            scan.add_stream(f"s{i}", 6e6)
        assert not scan.plan_round().feasible

