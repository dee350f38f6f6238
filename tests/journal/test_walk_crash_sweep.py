"""Crash the manager at *every* opportunity of one deep step-5 walk.

The fleet is pre-loaded with confirmed sessions so the next walk goes
36 offers deep; ``crash-manager:manager:0:-:k`` then kills the manager
at the k-th journal append or admission call of that walk, for every k
up to the first one the walk never reaches.  The count is swept, not
written down: it depends on how many records and admissions a walk
costs, which is exactly what an optimisation of the walk changes.
After each crash a journal replay must leave nothing leaked, close
each dead holder exactly once, and be repeatable.
"""

import itertools

from repro.client.machine import ClientMachine
from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.journal import HolderOutcome, RecoveryManager, ReservationJournal
from repro.util.errors import ManagerCrashError
from tests.properties.strategies import (
    GRID_FLAVOURS,
    grid_document,
    grid_manager,
    grid_profile,
)

FLAVOURS = [GRID_FLAVOURS[i] for i in (0, 1, 3, 4)]
STREAM_CAPS = (5, 12, 40)
PREFILL = 6          # confirmed sessions; the next walk is 36 deep
DEEP_ATTEMPTS = 36
LIVE = (HolderOutcome.ACTIVE, HolderOutcome.REARMED)


def loaded_deployment():
    """The manager with ``PREFILL`` confirmed sessions on its ledgers
    and in its journal, plus what the next request needs."""
    documents = [
        grid_document([FLAVOURS] * 4, f"doc.grid-{rotate}", rotate=rotate)
        for rotate in range(3)
    ]
    manager = grid_manager(
        documents, STREAM_CAPS, journal=ReservationJournal()
    )
    profile = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], 10_000)
    client = ClientMachine("walker", access_point="client-net")
    for index in range(PREFILL):
        result = manager.negotiate(
            documents[index % 3].document_id, profile, client
        )
        result.commitment.confirm(manager.clock.now())
    return manager, documents[PREFILL % 3].document_id, profile, client


def held(committer):
    """Who holds what, ids left out (they number every admission)."""
    return sorted(
        (stream.holder, stream.server_id, stream.variant_id)
        for server in committer.servers.values()
        for stream in server.reservations()
    ), sorted(
        (flow.holder, flow.reserved_bps)
        for flow in committer.transport.flows()
    )


def crash_at(opportunity):
    """Run the deep walk under a crash plan; returns the manager, its
    ledgers as they stood before the walk, and whether it crashed."""
    manager, document_id, profile, client = loaded_deployment()
    committer = manager.committer
    before = held(committer)
    plan = FaultPlan(faults=(
        parse_fault_spec(f"crash-manager:manager:0:-:{opportunity}"),
    ))
    injector = FaultInjector(plan, clock=manager.clock)
    injector.install(committer.servers, committer.transport)
    injector.install_journal(committer.journal)
    try:
        result = manager.negotiate(document_id, profile, client)
    except ManagerCrashError:
        crashed = True
    else:
        crashed = False
        assert result.attempts == DEEP_ATTEMPTS
    finally:
        injector.uninstall()
    return manager, before, crashed


def replay(manager):
    committer = manager.committer
    return RecoveryManager(
        committer.journal, committer.servers, committer.transport,
        clock=manager.clock,
    ).replay()


def test_every_crash_point_of_a_deep_walk_recovers_leak_free():
    outcomes = set()
    for opportunity in itertools.count(1):
        manager, before, crashed = crash_at(opportunity)
        if not crashed:
            break
        committer = manager.committer
        journal = committer.journal
        walker = f"session-{PREFILL + 1}"
        length = len(journal)

        report = replay(manager)

        assert report.leak_free, opportunity
        assert report.active_sessions == PREFILL
        # The crashed walk either died with its offer reserved (the
        # RESERVED record was the crash point: re-armed) or is gone
        # without a trace on the ledgers, however recovery got there
        # (orphan sweep, redo of a journalled release, nothing to do).
        outcome = report.outcomes[walker]
        outcomes.add(outcome)
        streams, flows = held(committer)
        if outcome == HolderOutcome.REARMED:
            assert walker in report.pending
            assert len(streams) == len(before[0]) + 4
        else:
            assert outcome not in LIVE, (opportunity, outcome)
            assert (streams, flows) == before
        # One terminal transition per non-live holder: the replay closes
        # each dead timeline with at most one record, no terminal record
        # ever follows another, and the live ones stay open.
        assert len(journal) - length <= 1
        for holder, timeline in journal.by_holder().items():
            if report.outcomes[holder] in LIVE:
                assert not timeline[-1].is_terminal
                continue
            assert timeline[-1].is_terminal, (opportunity, holder)
            assert not any(
                earlier.is_terminal and later.is_terminal
                for earlier, later in zip(timeline, timeline[1:])
            ), (opportunity, holder)

        # A second replay finds nothing left to do.
        length = len(journal)
        again = replay(manager)
        assert again.streams_released == again.flows_released == 0
        assert again.leak_free
        assert len(journal) == length
        assert held(committer) == (streams, flows)

    # The sweep really covered a deep walk: at least one opportunity
    # per attempt (its admission call) plus the closing RESERVED, which
    # is the one crash point that leaves the walker alive.
    assert opportunity > DEEP_ATTEMPTS
    assert {
        HolderOutcome.ORPHAN_RELEASED, HolderOutcome.REARMED
    } <= outcomes
