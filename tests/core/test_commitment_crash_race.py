"""Regression: choicePeriod expiry racing renegotiation and crashes.

Two interleavings used to double-journal (and could double-release) the
same commitment:

* a manager crash firing *after* the EXPIRED record was appended but
  before the in-memory state flipped — the re-armed timer (or any
  teardown path) would then journal EXPIRED/RELEASED a second time;
* the §8 renegotiation rejecting a pending commitment while its
  choicePeriod timer was still armed — the late expiry must see the
  terminal state and do nothing.

``_journal_and_flip`` makes record + state one unit; these tests pin
that behaviour against a journal-backed manager.
"""

import pytest

from repro.core import QoSManager
from repro.core.commitment import CommitmentState
from repro.journal import (
    JournalRecordType,
    RecoveryManager,
    ReservationJournal,
)
from repro.util.errors import ManagerCrashError


@pytest.fixture
def journal():
    return ReservationJournal()


@pytest.fixture
def journaled_manager(database, transport, servers, clock, journal):
    return QoSManager(
        database=database,
        transport=transport,
        servers=servers,
        clock=clock,
        journal=journal,
    )


def total_reserved(servers, transport):
    return (
        sum(s.stream_count for s in servers.values()),
        transport.flow_count,
    )


def crash_once_on(journal, record_type):
    """Arm a crash hook that kills the manager on the first append of
    ``record_type`` (the record itself is already durable)."""

    def hook(record):
        if record.record_type is record_type:
            journal.crash_hook = None
            raise ManagerCrashError("injected crash")

    journal.crash_hook = hook


class TestCrashDuringExpiry:
    def test_expiry_crash_journals_exactly_once(
        self, journaled_manager, servers, transport, journal,
        balanced_profile, client, clock,
    ):
        result = journaled_manager.negotiate(
            "doc.test", balanced_profile, client
        )
        commitment = result.commitment
        assert commitment is not None
        crash_once_on(journal, JournalRecordType.EXPIRED)
        clock.advance(commitment.choice_period_s + 1.0)
        with pytest.raises(ManagerCrashError):
            commitment.expire_check(clock.now())
        # The record hit the journal before the crash; the in-memory
        # state must agree with it.
        assert commitment.state is CommitmentState.EXPIRED
        expired = [
            r for r in journal.by_holder()[commitment.bundle.holder]
            if r.record_type is JournalRecordType.EXPIRED
        ]
        assert len(expired) == 1

        # Every later teardown path sees the terminal state: no second
        # terminal record, no double release.
        before = len(journal)
        assert commitment.expire_check(clock.now())
        commitment.release()
        commitment.reject(clock.now())
        assert len(journal) == before

        # The bundle now belongs to recovery (the durable EXPIRED
        # record replays the release against the ledgers) — after the
        # replay nothing may stay reserved.
        RecoveryManager(journal, servers, transport, clock=clock).replay()
        assert total_reserved(servers, transport) == (0, 0)

    def test_expiry_without_crash_still_single_record(
        self, journaled_manager, journal, balanced_profile, client, clock,
        servers, transport,
    ):
        result = journaled_manager.negotiate(
            "doc.test", balanced_profile, client
        )
        commitment = result.commitment
        clock.advance(commitment.choice_period_s + 1.0)
        assert commitment.expire_check(clock.now())
        assert commitment.expire_check(clock.now())
        commitment.release()
        terminal = [
            r for r in journal.by_holder()[commitment.bundle.holder]
            if r.record_type in (
                JournalRecordType.EXPIRED, JournalRecordType.RELEASED
            )
        ]
        assert len(terminal) == 1
        assert total_reserved(servers, transport) == (0, 0)


class TestRenegotiateExpiryRace:
    def test_late_expiry_after_renegotiation_is_inert(
        self, journaled_manager, servers, transport, journal,
        balanced_profile, client, clock,
    ):
        first = journaled_manager.negotiate(
            "doc.test", balanced_profile, client
        )
        old = first.commitment
        assert old is not None
        deadline = old.deadline

        # Mid-choice-period the user edits the profile and pushes OK:
        # renegotiation rejects the pending commitment and reserves a
        # fresh one while the original expiry timer stays armed.
        second = journaled_manager.renegotiate(
            first, "doc.test", balanced_profile, client
        )
        assert second.commitment is not None
        assert old.state is CommitmentState.REJECTED
        second.commitment.confirm(clock.now())

        held_after_reneg = total_reserved(servers, transport)
        records_after_reneg = len(journal)

        # The timer fires late, against the already-terminal state.
        clock.advance(deadline - clock.now() + 5.0)
        assert not old.expire_check(clock.now())
        old.release()
        assert len(journal) == records_after_reneg
        assert total_reserved(servers, transport) == held_after_reneg

        # Only the renegotiated bundle is still out; releasing it
        # returns the deployment to empty.
        second.commitment.release()
        assert total_reserved(servers, transport) == (0, 0)
        for timeline in journal.by_holder().values():
            assert timeline[-1].is_terminal

    def test_expiry_mid_adaptation_crash_then_recovery_is_leak_free(
        self, journaled_manager, servers, transport, journal,
        balanced_profile, client, clock,
    ):
        # Crash on the RELEASED append of the renegotiation's reject —
        # the worst spot: previous commitment terminal on disk only.
        first = journaled_manager.negotiate(
            "doc.test", balanced_profile, client
        )
        old = first.commitment
        crash_once_on(journal, JournalRecordType.RELEASED)
        with pytest.raises(ManagerCrashError):
            journaled_manager.renegotiate(
                first, "doc.test", balanced_profile, client
            )
        assert old.state is CommitmentState.REJECTED
        clock.advance(old.choice_period_s + 10.0)
        before = len(journal)
        assert not old.expire_check(clock.now())
        assert len(journal) == before
        RecoveryManager(journal, servers, transport, clock=clock).replay()
        assert total_reserved(servers, transport) == (0, 0)


class TestSchedulerInterleavedExpiryRace:
    """The same race under the cooperative scheduler: the user's
    confirm task and the choice-period watchdog wake at the same
    simulated instant, and the scheduler seed decides who runs first.
    Whichever wins, the commitment journals exactly one terminal
    transition and nothing leaks."""

    def run_race(self, scheduler_seed, confirm_offset_s):
        from repro.core import ProfileManager
        from repro.core.commitment import EXPIRY_MARGIN_S
        from repro.service import NegotiationService, ServicePolicy
        from repro.sim import ScenarioSpec, build_scenario

        journal = ReservationJournal()
        scenario = build_scenario(
            ScenarioSpec(server_count=2, client_count=2, document_count=1),
            journal=journal,
        )
        profile = ProfileManager().get("balanced")
        # Land the user's think time exactly on the watchdog's wake
        # tick (deadline + margin) plus the caller's offset.
        policy = ServicePolicy(
            confirm_delay_s=(
                profile.choice_period_s + EXPIRY_MARGIN_S + confirm_offset_s
            ),
            confirm_jitter=0.0,
            slow_user_fraction=0.0,
            reject_fraction=0.0,
            hold_s=5.0,
        )
        service = NegotiationService(
            scenario.manager,
            scenario.loop,
            policy=policy,
            scheduler_seed=scheduler_seed,
        )
        service.submit(
            scenario.document_ids()[0],
            profile,
            scenario.any_client(),
            label="race",
        )
        scenario.loop.run()
        return scenario, service, journal

    @pytest.mark.parametrize("scheduler_seed", range(6))
    def test_tied_wakeup_journals_exactly_one_terminal(
        self, scheduler_seed
    ):
        scenario, service, journal = self.run_race(scheduler_seed, 0.0)
        (request,) = service.requests
        assert request.result is not None
        # Both orders resolve to EXPIRED here: the watchdog fires at
        # deadline+margin, and a confirm() attempted at that same
        # instant is itself past the deadline (ConfirmationTimeout).
        assert request.expired
        assert not request.confirmed
        terminal = [
            r for r in journal.records()
            if r.record_type in (
                JournalRecordType.EXPIRED, JournalRecordType.RELEASED
            )
        ]
        assert len(terminal) == 1
        assert terminal[0].record_type is JournalRecordType.EXPIRED
        assert total_reserved(
            scenario.servers, scenario.transport
        ) == (0, 0)

    @pytest.mark.parametrize("scheduler_seed", range(6))
    def test_confirm_at_the_deadline_beats_the_watchdog(
        self, scheduler_seed
    ):
        from repro.core.commitment import EXPIRY_MARGIN_S

        # Think time = the choice period exactly: confirm() runs at the
        # deadline (still valid — expiry is strictly after), a full
        # margin before the watchdog can wake.
        scenario, service, journal = self.run_race(
            scheduler_seed, -EXPIRY_MARGIN_S
        )
        (request,) = service.requests
        assert request.confirmed
        assert not request.expired
        terminal = [
            r for r in journal.records()
            if r.record_type in (
                JournalRecordType.EXPIRED, JournalRecordType.RELEASED
            )
        ]
        # Confirmed, held, released: the one terminal record is the
        # RELEASED from teardown — never a stray EXPIRED.
        assert len(terminal) == 1
        assert terminal[0].record_type is JournalRecordType.RELEASED
        assert total_reserved(
            scenario.servers, scenario.transport
        ) == (0, 0)
