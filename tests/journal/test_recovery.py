"""Journal replay: every holder classification, idempotence, reaping,
and the restart that refuses a damaged journal."""

import re

import pytest

from repro.core.classification import classify_space
from repro.core.commitment import (
    EXPIRY_MARGIN_S,
    Commitment,
    ResourceCommitter,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.journal import (
    HolderOutcome,
    JournalRecordType,
    RecoveryManager,
    ReservationJournal,
)
from repro.network.qosparams import FlowSpec
from repro.session import EventLoop, SessionSupervisor
from repro.sim.recover import CrashRecoverySpec, run_crash_recovery
from repro.util.errors import (
    ConfirmationTimeout,
    JournalError,
    ReservationError,
)

FLOW = FlowSpec(
    max_bit_rate=2e6,
    avg_bit_rate=1e6,
    max_delay_s=0.5,
    max_jitter_s=0.1,
    max_loss_rate=0.01,
)


def take_resources(servers, transport, holder, rate_bps=2e6):
    """Manually reserve one stream and one flow under ``holder``."""
    stream = servers["server-a"].admit("m.v.v1", rate_bps, holder=holder)
    flow = transport.reserve(
        "server-a-net", "client-net", FLOW, holder=holder
    )
    return stream, flow


def reserved_payload(stream, flow, *, reserved_at, choice_period_s=60.0):
    return {
        "offer_id": "offer-1",
        "reserved_at": reserved_at,
        "choice_period_s": choice_period_s,
        "streams": [
            {
                "server_id": stream.server_id,
                "stream_id": stream.stream_id,
                "rate_bps": stream.rate_bps,
            }
        ],
        "flows": [{"flow_id": flow.flow_id, "reserved_bps": flow.reserved_bps}],
    }


def journal_reserved(journal, stream, flow, *, holder="s1"):
    """The journal of a walk that reserved at t=0 and then lost its
    manager: INTENT + RESERVED, nothing after."""
    journal.append(JournalRecordType.INTENT, holder, timestamp=0.0)
    journal.append(
        JournalRecordType.RESERVED,
        holder,
        reserved_payload(stream, flow, reserved_at=0.0),
        timestamp=0.0,
    )


def total_reserved(servers, transport):
    return (
        sum(s.stream_count for s in servers.values()),
        transport.flow_count,
    )


@pytest.fixture
def recovery(servers, transport, clock):
    journal = ReservationJournal()
    manager = RecoveryManager(journal, servers, transport, clock=clock)
    return journal, manager


class TestOrphans:
    def test_intent_only_holder_is_swept_by_ledger_scan(
        self, recovery, servers, transport
    ):
        journal, manager = recovery
        take_resources(servers, transport, "s1")
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)

        report = manager.replay()

        assert report.outcomes == {"s1": HolderOutcome.ORPHAN_RELEASED}
        assert total_reserved(servers, transport) == (0, 0)
        assert report.leak_free
        last = journal.last_for("s1")
        assert last.record_type is JournalRecordType.RELEASED
        assert last.payload["reason"] == "recovery-orphan"


class TestReservedHolders:
    def test_deadline_passed_during_outage_expires(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.append(
            JournalRecordType.RESERVED,
            "s1",
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        clock.advance(120.0)

        report = manager.replay()

        assert report.outcomes == {"s1": HolderOutcome.EXPIRED_RELEASED}
        assert total_reserved(servers, transport) == (0, 0)
        assert journal.last_for("s1").record_type is JournalRecordType.EXPIRED

    def test_deadline_pending_is_rearmed_and_expires_on_time(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.append(
            JournalRecordType.RESERVED,
            "s1",
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        clock.advance(10.0)
        loop = EventLoop(clock)

        report = manager.replay(loop=loop)

        assert report.outcomes == {"s1": HolderOutcome.REARMED}
        assert report.leak_free  # a re-armed holder is live, not a leak
        commitment = report.pending["s1"]
        assert commitment.deadline - clock.now() == pytest.approx(50.0)
        assert total_reserved(servers, transport) == (1, 1)

        loop.run()  # the re-armed watchdog fires just past t=60

        assert clock.now() == 60.0 + EXPIRY_MARGIN_S
        assert total_reserved(servers, transport) == (0, 0)
        expired = journal.last_for("s1")
        assert expired.record_type is JournalRecordType.EXPIRED
        assert expired.timestamp == 60.0 + EXPIRY_MARGIN_S
        assert expired.payload["recovered"] is True

    def test_confirm_on_the_deadline_tick_is_accepted(
        self, recovery, servers, transport, clock
    ):
        # Expiry is strictly after the deadline, for a resumed
        # commitment as for a live one: the tick itself still confirms.
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal_reserved(journal, stream, flow)
        clock.advance(10.0)
        loop = EventLoop(clock)
        report = manager.replay(loop=loop)
        commitment = report.pending["s1"]
        loop.at(60.0, lambda: commitment.confirm(clock.now()))

        loop.run()

        assert total_reserved(servers, transport) == (1, 1)
        last = journal.last_for("s1")
        assert last.record_type is JournalRecordType.CONFIRMED
        assert last.timestamp == 60.0
        assert last.payload == {"offer_id": "offer-1", "recovered": True}

    def test_rearmed_commitment_can_still_confirm(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.append(
            JournalRecordType.RESERVED,
            "s1",
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        clock.advance(10.0)
        loop = EventLoop(clock)
        report = manager.replay(loop=loop)
        commitment = report.pending["s1"]

        commitment.confirm(clock.now())
        with pytest.raises(ReservationError):  # as for a live commitment
            commitment.confirm(clock.now())
        loop.run()  # the timer still fires, but must be a no-op now

        assert total_reserved(servers, transport) == (1, 1)
        last = journal.last_for("s1")
        assert last.record_type is JournalRecordType.CONFIRMED
        assert last.payload["recovered"] is True

    def test_expired_recovered_commitment_rejects_confirmation(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal.append(
            JournalRecordType.RESERVED,
            "s1",
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        clock.advance(10.0)
        report = manager.replay(loop=EventLoop(clock))
        commitment = report.pending["s1"]
        clock.advance(100.0)

        assert commitment.expire_check(clock.now()) is True
        with pytest.raises(ConfirmationTimeout):
            commitment.confirm(clock.now())
        assert total_reserved(servers, transport) == (0, 0)

    def test_late_confirm_on_a_resumed_commitment_times_out(
        self, recovery, servers, transport, clock
    ):
        # No watchdog ran: the confirm itself finds the deadline passed,
        # expires the commitment and refuses, as a live one does.
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal_reserved(journal, stream, flow)
        clock.advance(10.0)
        commitment = manager.replay(loop=EventLoop(clock)).pending["s1"]
        clock.advance(100.0)

        with pytest.raises(ConfirmationTimeout):
            commitment.confirm(clock.now())

        types = [r.record_type for r in journal.records_for("s1")]
        assert types.count(JournalRecordType.EXPIRED) == 1
        assert JournalRecordType.CONFIRMED not in types
        assert journal.last_for("s1").record_type is JournalRecordType.EXPIRED
        assert total_reserved(servers, transport) == (0, 0)

    def test_expiry_also_frees_what_the_payload_does_not_name(
        self, recovery, servers, transport, clock
    ):
        # A rollback a fault hook swallowed earlier in the walk left a
        # second stream under the holder; the resumed commitment is
        # everything the ledgers hold for it, so expiry frees both.
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        servers["server-a"].admit("m.v.v2", 1e6, holder="s1")
        journal_reserved(journal, stream, flow)
        clock.advance(120.0)

        report = manager.replay()

        assert report.outcomes == {"s1": HolderOutcome.EXPIRED_RELEASED}
        assert total_reserved(servers, transport) == (0, 0)
        assert (report.streams_released, report.flows_released) == (2, 1)
        assert report.leak_free

    def test_a_swallowed_release_is_not_counted_as_freed(
        self, recovery, servers, transport, clock
    ):
        class SwallowFirstStreamRelease:
            swallowed = 0

            def intercept_stream_release(self, server, stream_id):
                self.swallowed += 1
                return self.swallowed == 1

        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal_reserved(journal, stream, flow)
        servers["server-a"].fault_hook = SwallowFirstStreamRelease()
        clock.advance(120.0)

        report = manager.replay()

        assert report.outcomes == {"s1": HolderOutcome.EXPIRED_RELEASED}
        assert total_reserved(servers, transport) == (1, 0)
        assert report.streams_released == 0
        assert report.flows_released == 1
        assert report.leaked_streams == 1
        assert report.leaked_flows == 0


class TestConfirmedHolders:
    def journal_confirmed(self, journal, stream, flow, holder="s1"):
        journal.append(JournalRecordType.INTENT, holder, timestamp=0.0)
        journal.append(
            JournalRecordType.RESERVED,
            holder,
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        journal.append(
            JournalRecordType.CONFIRMED,
            holder,
            {"offer_id": "offer-1"},
            timestamp=1.0,
        )

    def test_confirmed_holder_is_preserved_and_adopted(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        self.journal_confirmed(journal, stream, flow)
        supervisor = SessionSupervisor(clock=clock, heartbeat_timeout_s=30.0)

        report = manager.replay(supervisor=supervisor)

        assert report.outcomes == {"s1": HolderOutcome.ACTIVE}
        assert report.leak_free
        assert total_reserved(servers, transport) == (1, 1)
        assert supervisor.watched_holders() == ("s1",)

    def test_silent_adopted_holder_is_released_on_timeout(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        self.journal_confirmed(journal, stream, flow)
        supervisor = SessionSupervisor(clock=clock, heartbeat_timeout_s=30.0)
        manager.replay(supervisor=supervisor)

        clock.advance(31.0)
        acted = supervisor.check()

        assert acted == ["s1"]
        assert total_reserved(servers, transport) == (0, 0)
        last = journal.last_for("s1")
        assert last.record_type is JournalRecordType.RELEASED
        assert last.payload["reason"] == "supervisor-timeout"

    def test_heartbeats_keep_the_adopted_holder_alive(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        self.journal_confirmed(journal, stream, flow)
        supervisor = SessionSupervisor(clock=clock, heartbeat_timeout_s=30.0)
        manager.replay(supervisor=supervisor)

        for _ in range(4):
            clock.advance(20.0)
            assert supervisor.heartbeat("s1")
            assert supervisor.check() == []
        assert total_reserved(servers, transport) == (1, 1)

    def test_adapt_switch_is_an_active_timeline(
        self, recovery, servers, transport, clock
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s2")
        journal.append(
            JournalRecordType.RESERVED,
            "s2",
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        journal.append(
            JournalRecordType.ADAPT_SWITCH,
            "s2",
            {"from_holder": "s1", "position_s": 12.0},
            timestamp=5.0,
        )
        report = manager.replay()
        assert report.outcomes == {"s2": HolderOutcome.ACTIVE}
        assert total_reserved(servers, transport) == (1, 1)


class TestTerminalHolders:
    def test_terminal_with_leftovers_is_redone(
        self, recovery, servers, transport
    ):
        journal, manager = recovery
        stream, flow = take_resources(servers, transport, "s1")
        journal.append(
            JournalRecordType.RESERVED,
            "s1",
            reserved_payload(stream, flow, reserved_at=0.0),
            timestamp=0.0,
        )
        # RELEASED was journaled but the crash struck before the ledgers
        # were touched (append-before-apply): redo it now.
        journal.append(
            JournalRecordType.RELEASED,
            "s1",
            {"reason": "teardown"},
            timestamp=1.0,
        )
        report = manager.replay()
        assert report.outcomes == {"s1": HolderOutcome.REDO_RELEASED}
        assert total_reserved(servers, transport) == (0, 0)

    def test_terminal_without_leftovers_is_clean(self, recovery):
        journal, manager = recovery
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.append(
            JournalRecordType.RELEASED,
            "s1",
            {"reason": "commit-failed"},
            timestamp=0.0,
        )
        report = manager.replay()
        assert report.outcomes == {"s1": HolderOutcome.CLEAN}
        assert report.streams_released == 0
        assert report.flows_released == 0

    def test_replay_is_idempotent(self, recovery, servers, transport, clock):
        journal, manager = recovery
        take_resources(servers, transport, "s1")
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)

        first = manager.replay()
        second = manager.replay()

        assert first.outcomes["s1"] == HolderOutcome.ORPHAN_RELEASED
        # The orphan release was journaled, so the second replay sees a
        # terminal timeline with nothing left to free.
        assert second.outcomes["s1"] == HolderOutcome.CLEAN
        assert second.streams_released == 0
        assert second.flows_released == 0
        assert second.leak_free


class TestReaperInterplay:
    """A reaped lease is terminal in the journal: recovery must never
    release it a second time (satellite: reap + replay interplay)."""

    @pytest.fixture
    def space(self, document, client):
        return build_offer_space(document, client, default_cost_model())

    def test_reaped_lease_is_not_double_released(
        self, space, servers, transport, clock, client, balanced_profile
    ):
        journal = ReservationJournal()
        committer = ResourceCommitter(
            transport, servers, clock=clock, lease_ttl_s=30.0, journal=journal
        )
        ranked = classify_space(
            space, balanced_profile, default_importance()
        )
        bundle = committer.try_commit(
            ranked[0].offer, space, client.access_point, holder="s1"
        )
        commitment = Commitment(
            bundle, committer, reserved_at=clock.now(), choice_period_s=60.0
        )
        commitment.confirm(clock.now())

        clock.advance(31.0)  # the lease lapsed (no renewal arrived)
        assert committer.reap_expired() == 1
        assert total_reserved(servers, transport) == (0, 0)
        reap = journal.last_for("s1")
        assert reap.record_type is JournalRecordType.RELEASED
        assert reap.payload["reason"] == "lease-reaped"

        manager = RecoveryManager(journal, servers, transport, clock=clock)
        report = manager.replay()

        assert report.outcomes == {"s1": HolderOutcome.CLEAN}
        assert report.streams_released == 0
        assert report.flows_released == 0
        assert report.leak_free
        # The commitment object itself still tears down idempotently.
        commitment.release()
        assert total_reserved(servers, transport) == (0, 0)


class TestDamagedJournalRefusesTheRestart:
    """A record before the tail that fails its checksum is corruption,
    not a torn write: the restarted manager's reopen raises before any
    replay starts, and the file is left exactly as found — nothing
    truncated, nothing appended."""

    def test_a_bad_middle_record_stops_the_restart(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        reopen = ReservationJournal.open.__func__
        damaged = []

        def reopen_damaged(cls, file_path, **options):
            if path.exists() and not damaged:  # the restart's reopen
                lines = path.read_bytes().splitlines(keepends=True)
                assert len(lines) >= 3
                middle = len(lines) // 2
                lines[middle] = re.sub(
                    rb'^\{"crc":(\d+),',
                    lambda m: b'{"crc":%d,' % (int(m.group(1)) ^ 1),
                    lines[middle],
                )
                damaged.append(b"".join(lines))
                path.write_bytes(damaged[0])
            return reopen(cls, file_path, **options)

        built = []
        construct = RecoveryManager.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(
            ReservationJournal, "open", classmethod(reopen_damaged)
        )
        monkeypatch.setattr(RecoveryManager, "__init__", counted_init)
        with pytest.raises(JournalError, match="checksum mismatch"):
            run_crash_recovery(
                CrashRecoverySpec(journal_path=path, crash_opportunity=8)
            )
        assert damaged, "the run never reached its restart"
        assert not built
        assert path.read_bytes() == damaged[0]

