"""The synchronous walk's refusal memo changes no verdict.

``QoSManager.negotiate`` keeps a walk-local memo of refused admission
calls and fails an offer that would repeat one without asking again;
``tests/oracle.py`` asks the servers about every offer.  Over generated
offer spaces, stream caps and pre-loaded ledgers both must reach the
same ``(status, offer id, attempts)`` and leave the same ledgers, the
memo only ever *saving* admission calls; it must go quiet wherever a
skipped call could be observed (an installed fault injector, a circuit
breaker fed by attempt outcomes), and it must not outlive its walk.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.cmfs import MediaServer
from repro.core.classification import ClassificationPolicy
from repro.faults import CircuitBreaker, FaultInjector
from repro.faults.plan import FaultPlan
from tests.core.test_stream import DEAREST_CENTS, walk_manager
from tests.integration.test_walk_window import ledger_snapshot
from tests.oracle import reference_negotiate, signature
from tests.properties.strategies import (
    GRID_FLAVOURS,
    GRID_SERVERS,
    grid_document,
    grid_manager,
    grid_profile,
    grid_space,
    offer_cost_bounds,
)

CLIENT = ClientMachine("walker", access_point="client-net")


@st.composite
def contended_cases(draw):
    """A 1-4 axis grid document, a profile over it, and a three-server
    fleet with small stream caps part-filled by foreign streams, so
    refusals happen on the first call to a server and on a later one
    (the attempt's own streams used up what was left)."""
    flavours_per_axis = [
        draw(st.lists(st.sampled_from(GRID_FLAVOURS), min_size=1, max_size=4))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    desired = draw(st.sampled_from(GRID_FLAVOURS[:2]))
    worst = draw(st.sampled_from(
        [f for f in GRID_FLAVOURS if f[0] <= desired[0] and f[1] <= desired[1]]
    ))
    cheapest, dearest = offer_cost_bounds(grid_space(flavours_per_axis))
    budget = draw(st.sampled_from(
        [cheapest - 1, (cheapest + dearest) // 2, dearest]
    ))
    stream_caps = [
        draw(st.integers(min_value=1, max_value=4)) for _ in GRID_SERVERS
    ]
    preload = [
        draw(st.integers(min_value=0, max_value=cap)) for cap in stream_caps
    ]
    return dict(
        flavours_per_axis=flavours_per_axis,
        rotate=draw(st.integers(min_value=0, max_value=2)),
        profile=grid_profile(desired, worst, budget),
        stream_caps=stream_caps,
        preload=preload,
        policy=draw(st.sampled_from(list(ClassificationPolicy))),
        crashed=draw(st.sets(st.sampled_from(GRID_SERVERS), max_size=1)),
    )


def deployment(case, **manager_options):
    manager = grid_manager(
        [grid_document(case["flavours_per_axis"], rotate=case["rotate"])],
        case["stream_caps"], policy=case["policy"], **manager_options,
    )
    servers = manager.committer.servers
    for server_id, count in zip(GRID_SERVERS, case["preload"]):
        for _ in range(count):
            servers[server_id].admit("squatter", 1e5, holder="squatter")
    for server_id in case["crashed"]:
        servers[server_id].crash()
    return manager


@contextmanager
def counted_admits():
    """Count every ``MediaServer.admit`` call, refused ones included."""
    calls = []
    admit = MediaServer.admit

    def counting(server, variant_id, rate_bps, **kwargs):
        calls.append(server.server_id)
        return admit(server, variant_id, rate_bps, **kwargs)

    with mock.patch.object(MediaServer, "admit", counting):
        yield calls


def walk_both(case, prepare=lambda manager: None, **manager_options):
    """The reference and the real walk on twin deployments; returns
    ``(reference admits, real admits, real result)`` after checking
    that nobody could tell the two apart."""
    reference, real = (
        deployment(case, **manager_options), deployment(case, **manager_options)
    )
    prepare(reference)
    prepare(real)
    with counted_admits() as asked_by_reference:
        expected = reference_negotiate(
            reference, "doc.grid", case["profile"], CLIENT
        )
    with counted_admits() as asked:
        result = real.negotiate("doc.grid", case["profile"], CLIENT)
    assert signature(result) == signature(expected)
    assert ledger_snapshot(real) == ledger_snapshot(reference)
    return len(asked_by_reference), len(asked), result


@settings(max_examples=150, deadline=None)
@given(case=contended_cases())
def test_memoised_walk_matches_the_reference_and_asks_no_more(case):
    asked_by_reference, asked, result = walk_both(case)
    assert asked <= asked_by_reference
    # Every skipped attempt would have reached at least the call the
    # memo answered for it.
    assert asked_by_reference - asked >= result.memo_skips
    assert result.memo_skips <= result.attempts


@settings(max_examples=60, deadline=None)
@given(case=contended_cases())
def test_memo_is_inert_under_an_installed_injector(case):
    """The injector counts calls (budgets, the k-th crash opportunity,
    seeded coin flips), so with its hooks in place every call is made,
    even by a plan that injects nothing."""
    def install_empty_plan(manager):
        committer = manager.committer
        FaultInjector(FaultPlan(faults=()), clock=manager.clock).install(
            committer.servers, committer.transport
        )

    asked_by_reference, asked, result = walk_both(case, install_empty_plan)
    assert asked == asked_by_reference
    assert result.memo_skips == 0


@settings(max_examples=60, deadline=None)
@given(case=contended_cases())
def test_memo_is_inert_under_a_circuit_breaker(case):
    """A skipped attempt would also skip the admissions that succeed or
    hit a crashed server before the refusal, and those feed the
    breaker that decides which later offers are skipped outright."""
    # The reference knows no breaker, so nothing here may trip one.
    case = dict(case, crashed=())
    asked_by_reference, asked, result = walk_both(
        case,
        health=CircuitBreaker(failure_threshold=2, recovery_time_s=60.0),
    )
    assert asked == asked_by_reference
    assert result.memo_skips == 0


# A crashed server (no injector: crashed by hand) in front of a full
# one, under a breaker.  A memo that answered for the full server would
# spare the crashed one the calls that trip its breaker, and the walk
# would count attempts where it used to count breaker skips.  Expected
# values are the memo-less parent commit's.
BREAKER_FED_WALKS = [
    dict(
        flavours=(2, 2, 1, 3), rotate=0, stream_caps=(4, 3, 4),
        preload=(1, 1, 4), crashed="server-b", threshold=6,
        policy=ClassificationPolicy.SNS_PRIMARY,
        verdict=("FAILED_WITH_OFFER", "offer-58", 19), breaker_skips=6,
    ),
    dict(
        flavours=(1, 4, 3, 3), rotate=1, stream_caps=(3, 4, 3),
        preload=(2, 3, 3), crashed="server-a", threshold=2,
        policy=ClassificationPolicy.COST_GATED,
        verdict=("FAILED_TRY_LATER", None, 27), breaker_skips=37,
    ),
]


@pytest.mark.parametrize("walk", BREAKER_FED_WALKS)
def test_breaker_fed_walk_counts_what_it_counted_without_a_memo(walk):
    case = dict(
        flavours_per_axis=[[GRID_FLAVOURS[i] for i in walk["flavours"]]] * 3,
        rotate=walk["rotate"],
        stream_caps=walk["stream_caps"], preload=walk["preload"],
        policy=walk["policy"], crashed=(walk["crashed"],),
    )
    manager = deployment(case, health=CircuitBreaker(
        failure_threshold=walk["threshold"], recovery_time_s=60.0
    ))
    result = manager.negotiate(
        "doc.grid",
        grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], 100_000),
        CLIENT,
    )
    assert signature(result) == walk["verdict"]
    assert manager.committer.stats.breaker_skips == walk["breaker_skips"]
    assert result.memo_skips == 0


# server-a and server-b full, room for one offer on server-c: the
# 27-offer walk of tests/core/test_stream.py.
CANONICAL = dict(
    flavours_per_axis=[[GRID_FLAVOURS[i] for i in (0, 1, 3)]] * 3,
    rotate=0,
    profile=grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS),
    stream_caps=(1, 1, 3), preload=(1, 1, 0),
    policy=ClassificationPolicy.SNS_PRIMARY, crashed=(),
)


def test_the_property_is_not_vacuous():
    """On the canonical contended walk the memo answers most attempts."""
    asked_by_reference, asked, result = walk_both(CANONICAL)
    assert result.attempts > 5
    assert result.memo_skips >= result.attempts // 2
    assert asked < asked_by_reference // 2


def test_memo_is_inert_when_only_the_transport_is_hooked():
    """A skipped attempt also skips the flow reservations (and their
    releases) that precede the refusal, and the injector's lost-release
    coin is flipped per release."""
    def hook_the_transport(manager):
        FaultInjector(FaultPlan(faults=()), clock=manager.clock).install(
            {}, manager.committer.transport
        )

    asked_by_reference, asked, result = walk_both(
        CANONICAL, hook_the_transport
    )
    assert asked == asked_by_reference
    assert result.memo_skips == 0


def test_nogoods_do_not_survive_into_the_next_walk():
    manager = walk_manager((1, 1, 3))
    servers = manager.committer.servers
    squatters = [
        servers[server_id].admit("squatter", 1e5, holder="squatter")
        for server_id in GRID_SERVERS[:2]
    ]
    profile = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS)
    blocked = manager.negotiate("doc.grid", profile, CLIENT)
    assert blocked.memo_skips > 0 and blocked.attempts > 5
    blocked.commitment.release()
    for stream in squatters:
        servers[stream.server_id].release(stream)
    # The refusals above were true of ledgers that have since moved: a
    # fresh walk must ask again, and gets the best offer at once.
    again = manager.negotiate("doc.grid", profile, CLIENT)
    assert again.attempts == 1 and again.memo_skips == 0
    assert again.chosen.offer.offer_id != blocked.chosen.offer.offer_id
