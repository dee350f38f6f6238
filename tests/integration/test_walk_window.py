"""A tier-1 miniature of the benchmark's ``walk_contended`` check.

A FIFO window of confirmed sessions over uneven per-server stream caps:
the small servers fill first, so the step-5 walk has to go deep before
an offer reserves.  The ordered ``(status, offer id, attempts)`` list
and the ledgers the run ends on are pinned, so a change to how the walk
journals or skips an attempt cannot move a verdict unnoticed.  Stream
and flow ids are left out of the snapshot on purpose: they number every
admission ever tried, which is not an outcome.
"""

import hashlib
from collections import Counter, deque

import pytest

from repro.client.machine import ClientMachine
from repro.journal import RecoveryManager, ReservationJournal
from repro.telemetry import reconcile_journal
from tests.oracle import signature
from tests.properties.strategies import (
    GRID_FLAVOURS,
    grid_document,
    grid_manager,
    grid_profile,
)

# Colour 25 fps is desired, colour 15 fps acceptable; the grey variants
# are CONSTRAINT offers.  4 axes x 4 variants = 256 offers a document.
FLAVOURS = [GRID_FLAVOURS[i] for i in (0, 1, 3, 4)]
AXES = 4
REQUESTS = 72
WINDOW = 10


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_window(stream_caps):
    """``REQUESTS`` negotiations, one rotated document after the other;
    each commitment is confirmed and joins the window, whose oldest
    member is released when the window overflows or a request fails."""
    documents = [
        grid_document([FLAVOURS] * AXES, f"doc.grid-{rotate}", rotate=rotate)
        for rotate in range(3)
    ]
    manager = grid_manager(
        documents, stream_caps, journal=ReservationJournal()
    )
    profile = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], 10_000)
    client = ClientMachine("walker", access_point="client-net")
    live = deque()
    verdicts = []
    for index in range(REQUESTS):
        result = manager.negotiate(
            documents[index % 3].document_id, profile, client
        )
        verdicts.append(signature(result))
        if result.commitment is not None:
            result.commitment.confirm(manager.clock.now())
            live.append(result.commitment)
            if len(live) > WINDOW:
                live.popleft().release()
        elif live:
            live.popleft().release()
    return manager, live, verdicts


def ledger_snapshot(manager):
    servers = manager.committer.servers
    return (
        {
            server_id: sorted(
                (stream.holder, stream.variant_id)
                for stream in servers[server_id].reservations()
            )
            for server_id in sorted(servers)
        },
        sorted(
            (flow.holder, flow.reserved_bps)
            for flow in manager.committer.transport.flows()
        ),
    )


CASES = {
    # The big server never fills: every request is served, the deep
    # walks end on a CONSTRAINT offer.
    (5, 12, 40): dict(
        statuses={"SUCCEEDED": 48, "FAILED_WITH_OFFER": 24},
        attempts=[
            1, 1, 1, 2, 3, 4, 36, 47, 26, 63, 47, 1, 1, 1, 1, 9, 3, 8,
            63, 47, 26, 63, 2, 1, 1, 1, 4, 9, 6, 26, 63, 47, 26, 7, 2, 1,
            1, 3, 4, 9, 47, 26, 63, 47, 1, 7, 2, 1, 2, 3, 4, 36, 47, 26,
            63, 2, 1, 7, 2, 1, 9, 3, 8, 63, 47, 26, 7, 2, 1, 7, 2, 4,
        ],
        verdicts="ae9f8ca9922b77a3630d605e58ff14ce"
                 "0812deb118280e74dcf0fbdbb8c90177",
        streams={"server-a": 5, "server-b": 8, "server-c": 27},
        ledgers="1c4d85d57be7de7b252a483ffd9ebe72"
                "ee44f718e9f2644db4925661e458a44d",
    ),
    # The fleet holds fewer than WINDOW sessions: every other walk
    # exhausts all 256 offers (FAILEDTRYLATER).
    (5, 12, 22): dict(
        statuses={
            "SUCCEEDED": 31, "FAILED_WITH_OFFER": 9, "FAILED_TRY_LATER": 32,
        },
        attempts=[
            1, 1, 1, 2, 3, 4, 36, 47, 26, 256, 2, 256, 1, 256, 1, 256, 1,
            256, 9, 256, 4, 256, 6, 256, 63, 256, 26, 256, 2, 256, 1, 256,
            1, 256, 1, 256, 9, 256, 4, 256, 6, 256, 63, 256, 26, 256, 2,
            256, 1, 256, 1, 256, 1, 256, 9, 256, 4, 256, 6, 256, 63, 256,
            26, 256, 2, 256, 1, 256, 1, 256, 1, 256,
        ],
        verdicts="4ee41206839a3ab4fcf8577f8ef863ff"
                 "f8dc3bb44998f15a185fb2ff582c5d40",
        streams={"server-a": 5, "server-b": 9, "server-c": 18},
        ledgers="71802a5f843b8a7ea4c245575007e84f"
                "819380b1a2bf83d80090c5ed63c81920",
    ),
}


@pytest.mark.parametrize("stream_caps", list(CASES))
def test_contended_window_verdicts_and_ledgers_are_pinned(stream_caps):
    pinned = CASES[stream_caps]
    manager, live, verdicts = run_window(stream_caps)

    assert len(verdicts) >= 60
    assert Counter(status for status, _, _ in verdicts) == pinned["statuses"]
    attempts = [walked for _, _, walked in verdicts]
    assert attempts == pinned["attempts"]
    assert sum(walked >= 5 for walked in attempts) >= 30
    assert digest(verdicts) == pinned["verdicts"], verdicts

    streams, flows = ledger_snapshot(manager)
    assert {
        server_id: len(held) for server_id, held in streams.items()
    } == pinned["streams"]
    assert len(flows) == sum(pinned["streams"].values()) == AXES * len(live)
    assert digest((streams, flows)) == pinned["ledgers"], (streams, flows)


@pytest.mark.parametrize("stream_caps", list(CASES))
def test_contended_window_journal_balances_and_replays(stream_caps):
    """What the benchmark checks after every round: a restart finds
    the window's sessions live and nothing else, and after teardown the
    journal reconciles with nothing held."""
    manager, live, _ = run_window(stream_caps)
    committer = manager.committer
    journal = committer.journal

    report = RecoveryManager(
        journal, committer.servers, committer.transport, clock=manager.clock
    ).replay()
    assert report.active_sessions == len(live)
    assert report.leak_free
    assert report.streams_released == report.flows_released == 0

    while live:
        live.popleft().release()
    assert reconcile_journal(journal)["balanced"]
    assert all(
        timeline[-1].is_terminal
        for timeline in journal.by_holder().values()
    )
    assert committer.transport.flow_count == 0
    assert sum(s.stream_count for s in committer.servers.values()) == 0
