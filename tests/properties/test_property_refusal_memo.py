"""The synchronous walk's refusal memo changes no verdict.

``QoSManager.negotiate`` keeps a walk-local memo of refused admission
calls and fails an offer that would repeat one without asking again;
``tests/oracle.py`` asks the servers about every offer.  Over generated
offer spaces, stream caps and pre-loaded ledgers both must reach the
same ``(status, offer id, attempts)`` and leave the same ledgers, the
memo only ever *saving* admission calls.  It learns under a fault
injector whose plan holds only timed faults and under a quiet circuit
breaker, and leaves both exactly as the memo-less walk leaves them; it
goes quiet wherever a skipped call could be observed (a per-call fault
spec, a crashed server, a breaker record that a success would move),
and it must not outlive its walk.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.cmfs import MediaServer
from repro.core.classification import ClassificationPolicy
from repro.core.commitment import RefusalMemo
from repro.faults import CircuitBreaker, FaultInjector
from repro.faults.health import FAILURE_THRESHOLD, RECOVERY_TIME_S
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.session.engine import EventLoop
from repro.sim import StormSpec, run_storm
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
    that nobody could tell the two apart.  ``prepare`` readies each
    twin and may return a probe of state outside the ledgers; the two
    probes must read the same after the walks."""
    reference, real = (
        deployment(case, **manager_options), deployment(case, **manager_options)
    )
    probes = prepare(reference), prepare(real)
    with counted_admits() as asked_by_reference:
        expected = reference_negotiate(
            reference, "doc.grid", case["profile"], CLIENT
        )
    with counted_admits() as asked:
        result = real.negotiate("doc.grid", case["profile"], CLIENT)
    assert signature(result) == signature(expected)
    assert ledger_snapshot(real) == ledger_snapshot(reference)
    if probes[0] is not None:
        assert probes[1]() == probes[0]()
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


def injected(*faults, armed_until=None):
    """Install an injector with ``faults`` on the fleet and the
    transport (armed and run to ``armed_until`` when given); its probe
    reads every number a hook could move: stats, budgets, crash
    opportunities and the coin's state."""
    def prepare(manager):
        committer = manager.committer
        injector = FaultInjector(
            FaultPlan(faults=faults, seed=7), clock=manager.clock
        ).install(committer.servers, committer.transport)
        if armed_until is not None:
            loop = EventLoop(manager.clock)
            injector.arm(loop)
            loop.run_until(armed_until)
        return lambda: (
            injector.stats.as_dict(),
            dict(injector._budget),
            dict(injector._crash_opportunities),
            set(injector._crashed_specs),
            injector._rng.bit_generator.state,
        )

    return prepare


def watched_breaker(*setup):
    """Give the twin a breaker of its own, run ``setup(breaker)`` steps
    on it, then watch it; the probe reads every server's record and the
    transitions the walk caused."""
    def prepare(manager):
        breaker = manager.committer.health = CircuitBreaker()
        for step in setup:
            step(breaker)
        transitions = []
        breaker.on_transition = lambda *event: transitions.append(event)
        return lambda: (
            {
                server_id: (
                    record.state, record.consecutive_failures,
                    record.opened_at,
                )
                for server_id in GRID_SERVERS
                for record in [breaker.health(server_id)]
            },
            breaker.opens,
            transitions,
        )

    return prepare


def assert_learns(case, prepare):
    asked_by_reference, asked, result = walk_both(
        dict(case, crashed=()), prepare
    )
    assert asked <= asked_by_reference
    assert asked_by_reference - asked >= result.memo_skips
    return result


BROWNOUTS = (
    FaultSpec(FaultKind.SERVER_BROWNOUT, "server-a", duration_s=100.0,
              value=0.9),
    FaultSpec(FaultKind.SERVER_BROWNOUT, "server-c", start_s=0.5,
              duration_s=100.0),
)


# name -> prepare.  An installed injector whose plan injects nothing
# draws, counts and fires nothing; brownouts change server state on the
# loop, never inside a call (the walk runs inside both windows); on a
# quiet breaker the successes a skip leaves out would have changed no
# record and sent no transition, and with no crashed server and no
# per-call fault nothing can fail one.
LEARNING = {
    "empty-plan": injected(),
    "brownouts": injected(*BROWNOUTS, armed_until=1.0),
    "quiet-breaker": watched_breaker(),
}


@pytest.mark.parametrize("name", sorted(LEARNING))
@settings(max_examples=60, deadline=None)
@given(case=contended_cases())
def test_memo_learns(name, case):
    assert_learns(case, LEARNING[name])


@pytest.mark.parametrize("name", sorted(LEARNING))
def test_learning_is_not_vacuous(name):
    result = assert_learns(CANONICAL, LEARNING[name])
    assert result.memo_skips >= result.attempts // 2


def test_memo_learns_when_only_the_transport_is_hooked():
    """An inert hook on the transport alone: the releases a skip leaves
    out flip no coin."""
    def hook_the_transport(manager):
        injector = FaultInjector(FaultPlan(faults=()), clock=manager.clock)
        injector.install({}, manager.committer.transport)
        return lambda: injector._rng.bit_generator.state

    assert assert_learns(CANONICAL, hook_the_transport).memo_skips > 0


def one_failure(breaker):
    breaker.record_failure("server-a", 0.0)


def half_open(breaker):
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure("server-a", 0.0)
    breaker.state("server-a", RECOVERY_TIME_S)


# name -> (prepare, crashed servers)
INERT = {
    "transient-refusal": (injected(FaultSpec(
        FaultKind.TRANSIENT_REFUSAL, "*", probability=0.5,
    )), ()),
    "slow-admission": (injected(FaultSpec(
        FaultKind.SLOW_ADMISSION, "*", value=2.0, probability=0.5,
    )), ()),
    "crash-manager": (injected(FaultSpec(
        FaultKind.MANAGER_CRASH, "manager", value=1e9,
    )), ()),
    "lost-release": (injected(FaultSpec(
        FaultKind.LOST_RELEASE, "*", probability=0.5,
    )), ()),
    "crashed-server": (injected(), ("server-a",)),
    "breaker-one-failure": (watched_breaker(one_failure), ()),
    "breaker-half-open": (watched_breaker(half_open), ()),
}


@pytest.mark.parametrize("name", sorted(INERT))
@settings(max_examples=25, deadline=None)
@given(case=contended_cases())
def test_memo_stays_inert(name, case):
    """Each of these would see a skipped call: a per-call spec draws,
    counts or fires in the hook, a crashed server raises a retryable
    error, and a success moves a record holding a failure or sitting
    half-open.  The walk asks every call the reference asks."""
    prepare, crashed = INERT[name]
    asked_by_reference, asked, result = walk_both(
        dict(case, crashed=crashed), prepare
    )
    assert asked == asked_by_reference
    assert result.memo_skips == 0


# A crashed server (no injector: crashed by hand) in front of a full
# one, under a breaker.  A memo that answered for the full server would
# spare the crashed one the calls that trip its breaker, and the walk
# would count attempts where it used to count breaker skips.  Expected
# values are the memo-less walk's; a memo left on under the breaker
# reaches (offer-31, 13 attempts, 7 skips) and (35 attempts, 29 skips).
BREAKER_FED_WALKS = [
    dict(
        flavours=(3, 1, 3, 0), rotate=2, stream_caps=(4, 3, 4),
        preload=(0, 2, 4), crashed="server-b",
        policy=ClassificationPolicy.SNS_PRIMARY,
        verdict=("FAILED_WITH_OFFER", "offer-31", 11), breaker_skips=9,
    ),
    dict(
        flavours=(1, 4, 3, 3), rotate=1, stream_caps=(3, 4, 3),
        preload=(2, 3, 3), crashed="server-a",
        policy=ClassificationPolicy.COST_GATED,
        verdict=("FAILED_TRY_LATER", None, 28), breaker_skips=36,
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
    manager = deployment(case, health=CircuitBreaker())
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


def storm_outcome(report):
    return (
        sorted(report.statuses.items()),
        report.adaptations,
        report.failed_adaptations,
        sorted(report.gate.items()),
        sorted(report.waves.items()),
        report.journal_records,
        report.retry_after_hints,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_storm_learns_and_ends_alike(seed):
    """A storm installs an injector whose plan holds timed brownouts
    only, and a breaker that nothing can fail: its walks learn, and the
    run ends where a committer that never learns ends, in fewer calls."""
    learning, _ = run_storm(StormSpec(seed=seed))
    with mock.patch.object(RefusalMemo, "learn", lambda *args: None):
        asking, _ = run_storm(StormSpec(seed=seed))
    assert storm_outcome(learning) == storm_outcome(asking)
    assert learning.commit_attempts < asking.commit_attempts


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
