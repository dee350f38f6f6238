"""Admission control: the four rules and their relaxation."""

import math

import pytest

from repro.cmfs.admission import AdmissionController
from repro.cmfs.disk import DiskModel


@pytest.fixture
def controller():
    return AdmissionController(disk=DiskModel())


class TestRules:
    def test_admits_when_empty(self, controller):
        assert controller.evaluate([], 6e6)

    def test_stream_limit(self):
        controller = AdmissionController(disk=DiskModel(), max_streams=2)
        decision = controller.evaluate([1e5, 1e5], 1e5)
        assert not decision and decision.limiting_resource == "streams"

    def test_disk_limit(self, controller):
        n = controller.disk.max_streams_at_rate(6e6)
        decision = controller.evaluate([6e6] * n, 6e6)
        assert not decision and decision.limiting_resource == "disk"

    def test_buffer_limit(self):
        controller = AdmissionController(
            disk=DiskModel(), buffer_bits=10e6, max_streams=1000,
        )
        # one stream's double buffer = 2 * rate * 0.5 s = rate bits
        decision = controller.evaluate([6e6], 6e6)
        assert not decision and decision.limiting_resource == "buffer"

    def test_nic_limit(self):
        controller = AdmissionController(
            disk=DiskModel(transfer_rate_bps=1e12, avg_seek_s=1e-6,
                           rotational_latency_s=1e-6),
            buffer_bits=1e12,
            nic_bps=10e6,
            max_streams=1000,
        )
        decision = controller.evaluate([6e6], 6e6)
        assert not decision and decision.limiting_resource == "nic"

    def test_relaxed_disk_rule(self):
        lax = AdmissionController(
            disk=DiskModel(), enforce_disk=False, enforce_buffer=False,
            enforce_nic=False, max_streams=10_000,
        )
        assert lax.evaluate([6e6] * 100, 6e6)


class TestAccumulationOrder:
    @pytest.mark.parametrize(
        "rate, admitted", [(8e6 / 3, True), (1e7 / 7, False)]
    )
    def test_totals_are_taken_left_to_right(self, rate, admitted):
        """Six equal streams whose total, added one after another,
        lands an ulp away from the correctly rounded one — below it for
        8/3 Mbit/s, above it for 10/7.  ``math.fsum`` gives the rounded
        total, and so does ``sum()`` over floats since CPython 3.12
        made it compensated (Neumaier), which is why admission adds
        with ``+``: with the NIC limit between the two totals the
        answer is the left-to-right one on every interpreter."""
        left_to_right = 0.0
        for _ in range(6):
            left_to_right += rate
        rounded = math.fsum([rate] * 6)
        assert (left_to_right < rounded) == admitted
        assert left_to_right != rounded
        controller = AdmissionController(
            disk=DiskModel(transfer_rate_bps=1e12, avg_seek_s=1e-6,
                           rotational_latency_s=1e-6),
            buffer_bits=1e12,
            nic_bps=min(left_to_right, rounded),
            max_streams=1000,
        )
        decision = controller.evaluate([rate] * 5, rate)
        assert decision.admitted == admitted
        assert admitted or decision.limiting_resource == "nic"


class TestBufferDemand:
    def test_double_buffering(self, controller):
        assert controller.buffer_demand_bits(6e6) == pytest.approx(
            2 * 6e6 * controller.disk.round_s
        )


class TestHeadroom:
    def test_headroom_is_admissible(self, controller):
        existing = [6e6] * 3
        headroom = controller.headroom(existing)
        assert headroom > 0
        assert controller.evaluate(existing, headroom * 0.999)

    def test_just_above_headroom_rejected(self, controller):
        existing = [6e6] * 3
        headroom = controller.headroom(existing)
        assert not controller.evaluate(existing, headroom * 1.01)

    def test_headroom_shrinks_with_load(self, controller):
        assert controller.headroom([6e6] * 4) < controller.headroom([6e6])
