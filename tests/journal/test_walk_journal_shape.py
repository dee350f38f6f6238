"""What one step-5 walk leaves in the journal.

The walk, not the attempt, is the journalled unit: one ``INTENT`` when
the first attempt starts, nothing for an attempt that fails (it rolled
back all it took), and one closing record — ``RESERVED`` around the
bundle, or ``RELEASED`` with the reason the walk ended without one.
Recovery reads a holder's *last* record, so this is all it needs.
"""

import pytest

from repro.client.machine import ClientMachine
from repro.faults import CircuitBreaker
from repro.faults.health import FAILURE_THRESHOLD, RECOVERY_TIME_S
from repro.journal import JournalRecordType, ReservationJournal
from repro.reservations import AdvanceNegotiator
from repro.service import NegotiationService, ServicePolicy
from repro.session import EventLoop
from repro.sim.baselines import FirstFitNegotiator
from repro.telemetry import InMemorySpanExporter, Telemetry
from repro.util.clock import ManualClock
from repro.util.errors import AdmissionError, JournalError
from tests.core.test_stream import DEAREST_CENTS, WALK_FLAVOURS, occupy
from tests.properties.strategies import (
    GRID_FLAVOURS,
    GRID_SERVERS,
    grid_document,
    grid_manager,
    grid_profile,
)

INTENT = JournalRecordType.INTENT
RESERVED = JournalRecordType.RESERVED
RELEASED = JournalRecordType.RELEASED

PROFILE = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS)
CLIENT = ClientMachine("walker", access_point="client-net")


def journalled_manager(stream_caps, full=(), **options):
    """The 27-offer walk deployment with a journal; the servers in
    ``full`` are filled with foreign streams first."""
    manager = grid_manager(
        [grid_document([WALK_FLAVOURS] * 3)], stream_caps,
        journal=ReservationJournal(), **options,
    )
    for server_id in full:
        occupy(manager, server_id)
    return manager


def quarantine(manager, servers):
    """Open the manager's breaker on ``servers``."""
    for server_id in servers:
        for _ in range(FAILURE_THRESHOLD):
            manager.committer.health.record_failure(
                server_id, manager.clock.now()
            )


def shape(journal, holder=None):
    """``[(type, reason)]`` of the whole journal or one holder."""
    records = (
        journal.records() if holder is None else journal.by_holder()[holder]
    )
    return [
        (record.record_type, record.payload.get("reason"))
        for record in records
    ]


class TestSynchronousWalk:
    def test_failed_attempts_then_success_is_intent_reserved(self):
        # Only the all-on-server-c offer fits: the walk fails a dozen
        # attempts before it.
        manager = journalled_manager((1, 1, 3), full=GRID_SERVERS[:2])
        result = manager.negotiate("doc.grid", PROFILE, CLIENT)
        assert result.commitment is not None and result.attempts > 5
        journal = manager.committer.journal
        assert shape(journal) == [(INTENT, None), (RESERVED, None)]
        intent, reserved = journal.records()
        assert intent.holder == reserved.holder
        # The offer that matters is named by RESERVED; INTENT says only
        # where the walk reserves towards.
        assert intent.payload == {"client": "client-net"}
        assert reserved.payload["offer_id"] == result.chosen.offer.offer_id

    def test_first_attempt_success_is_intent_reserved(self):
        manager = journalled_manager((3, 3, 3))
        result = manager.negotiate("doc.grid", PROFILE, CLIENT)
        assert result.attempts == 1
        assert shape(manager.committer.journal) == [
            (INTENT, None), (RESERVED, None),
        ]

    def test_exhausted_walk_is_intent_released_commit_failed(self):
        manager = journalled_manager((1, 1, 1), full=GRID_SERVERS)
        result = manager.negotiate("doc.grid", PROFILE, CLIENT)
        assert result.commitment is None and result.attempts == 27
        journal = manager.committer.journal
        assert shape(journal) == [(INTENT, None), (RELEASED, "commit-failed")]
        assert journal.records()[-1].payload == {"reason": "commit-failed"}
        assert not journal.has_open_intent(journal.records()[0].holder)

    def test_every_offer_breaker_skipped_leaves_no_record(self):
        breaker = CircuitBreaker()
        manager = journalled_manager((3, 3, 3), health=breaker)
        quarantine(manager, GRID_SERVERS)
        result = manager.negotiate("doc.grid", PROFILE, CLIENT)
        assert result.commitment is None and result.attempts == 0
        assert len(manager.committer.journal) == 0

    def test_each_walk_gets_its_own_pair(self):
        manager = journalled_manager((1, 1, 6), full=GRID_SERVERS[:2])
        for _ in range(3):
            manager.negotiate("doc.grid", PROFILE, CLIENT)
        journal = manager.committer.journal
        assert [
            shape(journal, holder) for holder in journal.by_holder()
        ] == [
            [(INTENT, None), (RESERVED, None)],
            [(INTENT, None), (RESERVED, None)],
            [(INTENT, None), (RELEASED, "commit-failed")],
        ]


class TestSingleWriter:
    def test_a_second_walk_on_an_open_holder_is_refused(self):
        manager = journalled_manager((3, 3, 3))
        committer = manager.committer
        plan = manager.plan("doc.grid", PROFILE, CLIENT)
        offer = next(plan.offers).offer
        bundle = committer.try_commit(
            offer, plan.space, "client-net", holder="session-x"
        )
        assert bundle is not None
        journal = committer.journal
        assert journal.has_open_intent("session-x")
        # A later attempt of the same walk does not re-open it ...
        committer.release(bundle)
        assert committer.try_commit(
            offer, plan.space, "client-net", holder="session-x"
        ) is not None
        assert shape(journal) == [(INTENT, None)]
        # ... but whoever appends INTENT for the holder again is
        # interleaving a second walk.
        with pytest.raises(JournalError, match="step-5 walk"):
            journal.append(INTENT, "session-x", timestamp=0.0)

    def test_end_walk_without_an_open_intent_is_a_noop(self):
        manager = journalled_manager((3, 3, 3))
        committer = manager.committer
        committer.end_walk("nobody")
        assert len(committer.journal) == 0
        result = manager.negotiate("doc.grid", PROFILE, CLIENT)
        committer.end_walk(result.commitment.bundle.holder)
        assert shape(committer.journal) == [(INTENT, None), (RESERVED, None)]


class TestOtherWalkSites:
    def test_baseline_walk_closes_once_when_exhausted(self):
        manager = journalled_manager((1, 1, 1), full=GRID_SERVERS)
        result = FirstFitNegotiator(manager).negotiate(
            "doc.grid", PROFILE, CLIENT
        )
        assert result.commitment is None and result.attempts == 27
        assert shape(manager.committer.journal) == [
            (INTENT, None), (RELEASED, "commit-failed"),
        ]

    def test_failed_advance_claim_closes_its_walk(self):
        manager = journalled_manager((1, 1, 3))
        advance = AdvanceNegotiator(manager)
        plan = advance.negotiate_advance(
            "doc.grid", PROFILE, CLIENT, start_s=100.0
        )
        for server_id in GRID_SERVERS:
            occupy(manager, server_id)   # the live ledgers filled since
        result = advance.claim(plan, PROFILE, CLIENT)
        assert result.commitment is None
        assert shape(manager.committer.journal, plan.plan_id) == [
            (INTENT, None), (RELEASED, "commit-failed"),
        ]


class TestCooperativeWalk:
    def service(self, manager, **policy):
        loop = EventLoop(manager.clock)
        service = NegotiationService(
            manager, loop, policy=ServicePolicy(hold_s=1.0, **policy)
        )
        return loop, service

    def test_failed_attempts_then_success_is_intent_reserved(self):
        manager = journalled_manager((1, 1, 3), full=GRID_SERVERS[:2])
        loop, service = self.service(manager)
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        assert request.result.attempts > 5
        journal = manager.committer.journal
        holder = request.result.commitment.bundle.holder
        assert shape(journal, holder)[:2] == [(INTENT, None), (RESERVED, None)]
        assert sum(r.record_type is INTENT for r in journal.records()) == 1

    def test_exhausted_walk_closes_with_commit_failed(self):
        manager = journalled_manager((1, 1, 1), full=GRID_SERVERS)
        loop, service = self.service(manager)
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        assert request.result.attempts == 27 and not request.overrun
        assert shape(manager.committer.journal) == [
            (INTENT, None), (RELEASED, "commit-failed"),
        ]

    def test_overrun_mid_attempt_closes_with_one_abandoned(self):
        # The budget runs out while the second reservation call of the
        # first attempt is parked.
        manager = journalled_manager((3, 3, 3))
        loop, service = self.service(
            manager, plan_s=0.005, reservation_step_s=0.01,
            deadline_budget_s=0.022,
        )
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        assert request.overrun and request.result.attempts == 1
        assert shape(manager.committer.journal) == [
            (INTENT, None), (RELEASED, "abandoned"),
        ]
        assert sum(
            s.stream_count for s in manager.committer.servers.values()
        ) == 0

    def test_overrun_between_attempts_closes_with_one_abandoned(
        self, monkeypatch
    ):
        # A refusal that itself takes the rest of the budget: the
        # attempt ends rolled back, and the deadline check before the
        # next one finds the walk's INTENT still open.
        manager = journalled_manager((1, 1, 3), full=GRID_SERVERS[:2])
        loop, service = self.service(manager, deadline_budget_s=5.0)
        server = manager.committer.server("server-a")

        def slow_refusal(variant_id, rate_bps, *, holder):
            manager.clock.advance(10.0)
            raise AdmissionError(f"server-a rejected {variant_id!r}, slowly")

        monkeypatch.setattr(server, "admit", slow_refusal)
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        assert request.overrun and request.result.attempts == 1
        assert shape(manager.committer.journal) == [
            (INTENT, None), (RELEASED, "abandoned"),
        ]

    def test_overrun_before_the_first_attempt_leaves_no_record(self):
        manager = journalled_manager((3, 3, 3))
        loop, service = self.service(
            manager, plan_s=0.005, deadline_budget_s=0.004
        )
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        assert request.overrun and request.result.attempts == 0
        assert len(manager.committer.journal) == 0

    def test_every_offer_breaker_skipped_leaves_no_record(self):
        # The synchronous case above, through the service: skipped and
        # counted, one span per skip under the request's trace, nothing
        # journalled, and the hint is when the breaker reopens.
        clock = ManualClock()
        exporter = InMemorySpanExporter()
        manager = journalled_manager(
            (3, 3, 3),
            clock=clock,
            health=CircuitBreaker(),
            telemetry=Telemetry(clock=clock, seed=0),
        )
        manager.telemetry.tracer.add_exporter(exporter)
        quarantine(manager, GRID_SERVERS)
        loop, service = self.service(manager, plan_s=0.0)
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        result = request.result
        assert result.commitment is None and result.attempts == 0
        assert result.retry_after_s == RECOVERY_TIME_S
        assert manager.committer.stats.breaker_skips == 27
        assert len(manager.committer.journal) == 0
        skips = [
            span for span in exporter.spans
            if span.name == "negotiation.step5.attempt"
        ]
        assert len(skips) == 27
        assert {s.attributes["outcome"] for s in skips} == {"breaker-skip"}
        assert {(s.trace_id, s.parent_id) for s in skips} == {request.context}

    def test_offers_on_a_quarantined_server_are_skipped(self):
        manager = journalled_manager(
            (3, 3, 3),
            health=CircuitBreaker(),
        )
        quarantine(manager, ["server-a"])
        loop, service = self.service(manager)
        request = service.submit("doc.grid", PROFILE, CLIENT)
        loop.run()
        result = request.result
        assert "server-a" not in result.chosen.offer.servers_used()
        assert result.attempts == 1
        skipped = [
            c for c in result.classified
            if "server-a" in c.offer.servers_used()
        ]
        assert manager.committer.stats.breaker_skips == len(skipped) > 0
        assert shape(manager.committer.journal)[:2] == [
            (INTENT, None), (RESERVED, None),
        ]


QUIET_CASES = {
    # name: (stream caps, servers filled beforehand, servers quarantined)
    "first-attempt": ((3, 3, 3), (), ()),
    "deep": ((1, 1, 3), GRID_SERVERS[:2], ()),
    "exhausted": ((1, 1, 1), GRID_SERVERS, ()),
    "breaker-open": ((3, 3, 3), (), ("server-a",)),
    "all-quarantined": ((3, 3, 3), (), GRID_SERVERS),
}


@pytest.mark.parametrize("case", QUIET_CASES)
def test_a_quiet_service_walks_like_negotiate(case):
    """One lone request, no gate, free reservation calls: nothing
    interleaves, so the cooperative driver and the synchronous one are
    the same walk and must reach the same verdict the same way."""
    stream_caps, full, open_on = QUIET_CASES[case]

    def deployment():
        manager = journalled_manager(
            stream_caps, full=full,
            health=CircuitBreaker(),
        )
        quarantine(manager, open_on)
        return manager

    def outcome(manager, result):
        return (
            result.status,
            result.chosen.offer.offer_id if result.chosen else None,
            result.attempts,
            manager.committer.stats.breaker_skips,
            result.retry_after_s,
            shape(manager.committer.journal)[:2],
        )

    synchronous = deployment()
    expected = outcome(
        synchronous, synchronous.negotiate("doc.grid", PROFILE, CLIENT)
    )
    cooperative = deployment()
    loop = EventLoop(cooperative.clock)
    service = NegotiationService(
        cooperative, loop,
        policy=ServicePolicy(plan_s=0.0, reservation_step_s=0.0, hold_s=1.0),
    )
    request = service.submit("doc.grid", PROFILE, CLIENT)
    loop.run()
    assert outcome(cooperative, request.result) == expected
