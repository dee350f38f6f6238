"""Media server: admission, release, degradation shedding."""

import pytest

from repro.cmfs.admission import AdmissionController
from repro.cmfs.disk import DiskModel
from repro.cmfs.server import MediaServer
from repro.util.errors import AdmissionError, ReservationError, ValidationError


@pytest.fixture
def server():
    return MediaServer("server-a")


class TestAdmission:
    def test_admit_tracks_stream(self, server):
        reservation = server.admit("v1", 6e6, holder="h1")
        assert server.stream_count == 1
        assert server.aggregate_rate_bps == 6e6
        assert reservation.server_id == "server-a"

    def test_admit_saturates(self, server):
        cap = server.disk.max_streams_at_rate(6e6)
        for i in range(cap):
            server.admit(f"v{i}", 6e6)
        with pytest.raises(AdmissionError):
            server.admit("overflow", 6e6)

    def test_release(self, server):
        reservation = server.admit("v1", 6e6)
        server.release(reservation)
        assert server.stream_count == 0

    def test_release_by_id(self, server):
        reservation = server.admit("v1", 6e6)
        server.release(reservation.stream_id)
        assert server.stream_count == 0

    def test_double_release_rejected(self, server):
        reservation = server.admit("v1", 6e6)
        server.release(reservation)
        with pytest.raises(ReservationError):
            server.release(reservation)

    def test_release_all(self, server):
        server.admit("v1", 6e6)
        server.admit("v2", 6e6)
        server.release_all()
        assert server.stream_count == 0

    def test_utilization_grows(self, server):
        before = server.disk_utilization
        server.admit("v1", 6e6)
        assert server.disk_utilization > before


class TestOneMachineOneDisk:
    """The controller's round inequality and the server's degraded
    budget, shedding order and utilisation read one disk."""

    SLOW_ROUNDS = DiskModel(round_s=1.0)

    def test_controller_on_another_disk_is_rejected(self):
        with pytest.raises(ValidationError, match="server-a"):
            MediaServer(
                "server-a", disk=DiskModel(),
                admission=AdmissionController(disk=self.SLOW_ROUNDS),
            )

    def test_disk_defaults_to_the_controllers(self):
        server = MediaServer(
            "server-a", admission=AdmissionController(disk=self.SLOW_ROUNDS)
        )
        assert server.disk is self.SLOW_ROUNDS

    def test_admission_is_reassigned_on_an_equal_disk_only(self, server):
        server.admit("v1", 6e6)
        server.admit("v2", 6e6)
        tight = AdmissionController(disk=DiskModel(), max_streams=2)
        server.admission = tight
        assert server.can_admit(6e6).limiting_resource == "streams"
        with pytest.raises(ValidationError):
            server.admission = AdmissionController(disk=self.SLOW_ROUNDS)
        assert server.admission is tight
        assert server.aggregate_rate_bps == 12e6


class TestDegradation:
    def test_healthy_server_no_victims(self, server):
        server.admit("v1", 6e6, holder="h1")
        assert server.violated_holders() == frozenset()

    def test_latest_admissions_shed_first(self, server):
        server.admit("v1", 6e6, holder="old")
        server.admit("v2", 6e6, holder="new")
        server.set_degradation(0.8)
        victims = server.violated_holders()
        assert "new" in victims and "old" not in victims

    def test_total_degradation_sheds_all(self, server):
        server.admit("v1", 6e6, holder="a")
        server.admit("v2", 6e6, holder="b")
        server.set_degradation(1.0)
        assert server.violated_holders() == {"a", "b"}

    def test_healing(self, server):
        server.admit("v1", 6e6, holder="a")
        server.set_degradation(0.95)
        assert server.violated_holders()
        server.set_degradation(0.0)
        assert server.violated_holders() == frozenset()

    def test_mild_degradation_harmless(self, server):
        server.admit("v1", 6e6, holder="a")
        server.set_degradation(0.1)
        assert server.violated_holders() == frozenset()
