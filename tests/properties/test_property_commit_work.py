"""What a successful step 5 costs, counted — no clock is read.

For every monomedia the paper's step 5 asks one server to admit a
stream and the transport system to reserve one flow.  A counting
wrapper around each routine the committer could reach holds the
successful path to exactly that, with no retry policy and no breaker:

* the retry combinator is never entered;
* no ``PathQoS`` is built once the route is memoised (the spec's
  bounds are read, not wrapped);
* ``find_route`` runs once per flow;
* an admitted stream allocates no ``AdmissionDecision``;
* an admitted stream is kept in the server's ledger alone: neither the
  commit nor its release touches a ``RoundScheduler`` or builds a
  ``StreamState``.

Under a retry policy the first call is still made directly: a success
or an admission refusal never enters the policy's backoff loop, a
server's transient fault enters it once, and the network's is refused
without a retry.

The user offer is held to an always-constructing reference, and the
one a verdict carries — read from the space's ``user_offers`` memo — to
a fresh ``derive_user_offer`` over repeated requests, within the memo's
bound.  The resilient configuration — a retry policy, a circuit
breaker, an armed telemetry hub and a fault hook — is held to counts
pinned from a scripted fault plan: its stats, counters and breaker
records are call for call what they were before the wrapper stopped
building closures, through ``try_commit`` and through a drained
``iter_commit`` alike.  A server's refusal and the network's, under a
policy and a breaker, are counted once, never retried and never held
against a breaker; a crash without a policy is counted once and held
against the server that refused.
"""

import itertools
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.commitment as commitment
import repro.network.transport as transport_module
from repro.client.machine import ClientMachine
from repro.cmfs.admission import AdmissionDecision
from repro.cmfs.scheduler import RoundScheduler, StreamState
from repro.core.enumeration import build_offer_space
from repro.core.offers import derive_user_offer
from repro.core.profiles import MMProfile, TimeProfile
from repro.core.status import NegotiationStatus
from repro.core.stream import ORDER_MEMO_SIZE
from repro.documents.media import AudioGrade, ColorMode, Language
from repro.documents.quality import AudioQoS, GraphicQoS, VideoQoS
from repro.faults.health import CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.network.qosparams import PathQoS
from repro.perf.cache import NegotiationCache
from repro.telemetry import Telemetry
from repro.util.clock import ManualClock
from repro.util.errors import TransientFaultError
from repro.util.units import Money

from .strategies import (
    GRID_FLAVOURS,
    any_qos,
    audio_qos,
    color_modes,
    grid_document,
    grid_manager,
    grid_profile,
    money,
    resolutions,
    video_qos,
)

N = 10  # the catalogue documents of the shared-profile benchmark


@contextmanager
def counted(owner, name):
    """Calls of ``owner.name``, passed through to the original."""
    calls = Counter()
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    with mock.patch.object(owner, name, counting):
        yield calls


def grid_walk(monomedia, **manager_options):
    manager = grid_manager(
        [grid_document([GRID_FLAVOURS[:2]] * monomedia)],
        stream_caps=(64, 64, 64), **manager_options,
    )
    client = ClientMachine("walker", access_point="client-net")
    space = build_offer_space(
        manager.database.get_document("doc.grid"), client,
        manager.cost_model, mapper=manager.mapper,
        guarantee=manager.guarantee,
    )
    return manager, space


def commit(manager, space, index=0, holder="holder-1"):
    return manager.committer.try_commit(
        space.offer_at(index), space, "client-net",
        guarantee=manager.guarantee, holder=holder,
    )


def drained(manager, space, index=0, holder="holder-1"):
    """``iter_commit`` run to its end with nothing interleaved."""
    walk = manager.committer.iter_commit(
        space.offer_at(index), space, "client-net",
        guarantee=manager.guarantee, holder=holder,
    )
    while True:
        try:
            next(walk)
        except StopIteration as done:
            return done.value


class TestSuccessfulCommitWork:
    @pytest.fixture
    def warm(self):
        """A deployment whose routes are memoised: one commit has run
        and been given back."""
        manager, space = grid_walk(N)
        manager.committer.release(commit(manager, space, holder="warm-up"))
        return manager, space

    def test_no_retry_machinery_without_a_policy(self, warm):
        manager, space = warm
        with counted(commitment, "execute_with_retry") as calls:
            bundle = commit(manager, space)
        assert bundle is not None and len(bundle.flows) == N
        assert not calls

    def test_the_spec_bounds_are_read_not_built(self, warm):
        manager, space = warm
        with counted(PathQoS, "__init__") as calls:
            bundle = commit(manager, space)
        assert bundle is not None
        assert not calls

    def test_one_route_lookup_per_flow(self, warm):
        manager, space = warm
        with counted(transport_module, "find_route") as calls:
            bundle = commit(manager, space)
        assert len(bundle.flows) == N
        assert calls == {"find_route": N}

    def test_an_admitted_stream_allocates_no_decision(self, warm):
        manager, space = warm
        with counted(AdmissionDecision, "__init__") as calls:
            bundle = commit(manager, space)
        assert len(bundle.streams) == N
        assert not calls

    def test_an_admitted_stream_is_kept_in_one_ledger(self, warm):
        manager, space = warm
        with counted(StreamState, "__init__") as built, counted(
            RoundScheduler, "add_stream"
        ) as added:
            bundle = commit(manager, space)
            assert len(bundle.streams) == N
            manager.committer.release(bundle)
        assert not built and not added

    def test_only_a_refusal_allocates_a_decision(self):
        manager, space = grid_walk(2)
        for server in manager.committer.servers.values():
            server.admission = type(server.admission)(
                disk=server.disk, max_streams=1
            )
        with counted(AdmissionDecision, "__init__") as calls:
            commit(manager, space, index=0)
            assert commit(manager, space, index=0, holder="holder-2") is None
        assert calls == {"__init__": 1}


class TestRetryWork:
    """Under a retry policy the first call is made directly: the
    policy's backoff loop, its hook and its thunk are built only after
    a retryable failure."""

    POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.2)

    @contextmanager
    def retry_machinery(self):
        """Entries into the backoff loop and retry hooks built, read
        once the block is left."""
        calls = Counter()
        with counted(commitment, "execute_with_retry") as loops, counted(
            commitment.ResourceCommitter, "_on_retry"
        ) as hooks:
            yield calls
            calls.update(loops + hooks)

    def test_a_success_enters_no_loop(self):
        manager, space = grid_walk(N, retry_policy=self.POLICY)
        with self.retry_machinery() as calls:
            bundle = commit(manager, space)
        assert bundle is not None and len(bundle.streams) == N
        assert not calls and manager.committer.stats.retries == 0

    def test_an_admission_refusal_enters_no_loop(self):
        manager, space = grid_walk(2, retry_policy=self.POLICY)
        for server in manager.committer.servers.values():
            server.admission = type(server.admission)(
                disk=server.disk, max_streams=1
            )
        commit(manager, space)
        with self.retry_machinery() as calls:
            assert commit(manager, space, holder="holder-2") is None
        assert not calls and manager.committer.stats.retries == 0

    def test_a_transient_fault_enters_the_loop_once(self):
        manager, space = grid_walk(N, retry_policy=self.POLICY)
        FaultInjector(
            FaultPlan((FaultSpec(FaultKind.TRANSIENT_REFUSAL, "*", value=1),))
        ).install(manager.committer.servers, manager.committer.transport)
        with self.retry_machinery() as calls:
            bundle = commit(manager, space)
        assert bundle is not None and len(bundle.streams) == N
        assert calls == {"execute_with_retry": 1, "_on_retry": 1}
        assert manager.committer.stats.retries == 1
        assert manager.committer.stats.attempts == 2 * N + 1

    def test_a_transient_network_fault_is_refused_without_a_retry(self):
        """The network raises nothing retryable, so the committer keeps
        no retry path for it: a fault there is one refusal, and the
        attempt is rolled back."""
        telemetry = Telemetry(clock=ManualClock(), seed=0)
        manager, space = grid_walk(
            N, retry_policy=self.POLICY, telemetry=telemetry
        )
        transport = manager.committer.transport
        reserve, faults = transport.reserve, [TransientFaultError("blip")]

        def flaky(*args, **kwargs):
            if faults:
                raise faults.pop()
            return reserve(*args, **kwargs)

        transport.reserve = flaky
        with self.retry_machinery() as calls:
            assert commit(manager, space) is None
        assert not calls and manager.committer.stats.retries == 0
        counters = telemetry.metrics.snapshot()["counters"]
        refusals = {k: v for k, v in counters.items() if "refusals" in k}
        assert refusals == {"admission.refusals{target=network}": 1.0}
        assert counters["commitment.rollbacks"] == 1.0
        assert transport.flow_count == 0
        assert not any(
            s.stream_rates() for s in manager.committer.servers.values()
        )


# -- the user offer against an always-constructing reference --------------------------


def constructing_merge(a, b):
    """The component-wise worst of two points, always built anew."""
    values = {}
    for name in a.__slots__:
        mine, theirs = getattr(a, name), getattr(b, name)
        if isinstance(mine, Language):
            values[name] = mine if mine == theirs else Language.NONE
        else:
            values[name] = min(mine, theirs)
    return type(a)(**values)


def reference_user_offer(offer):
    per_medium = {}
    for qos in offer.presented.values():
        existing = per_medium.get(qos.medium)
        per_medium[qos.medium] = (
            qos if existing is None else constructing_merge(existing, qos)
        )
    return MMProfile(
        cost=offer.cost, time=TimeProfile(),
        **{medium.value: qos for medium, qos in per_medium.items()},
    )


def offer_of(points, cost=Money(100)):
    """What ``derive_user_offer`` reads of a system offer."""
    return SimpleNamespace(
        presented={f"m{n}": qos for n, qos in enumerate(points)}, cost=cost,
    )


# Few distinct values, so ties and dominated points are common.
narrow_video = st.builds(
    VideoQoS,
    color=st.sampled_from([ColorMode.GREY, ColorMode.COLOR]),
    frame_rate=st.sampled_from([10, 25]),
    resolution=st.sampled_from([240, 480]),
)
audio_languages = st.builds(
    AudioQoS,
    grade=st.sampled_from([AudioGrade.TELEPHONE, AudioGrade.CD]),
    language=st.sampled_from([Language.NONE, Language.ENGLISH, Language.FRENCH]),
)
graphic_qos = st.builds(GraphicQoS, color=color_modes, resolution=resolutions)
POINTS = st.lists(
    st.one_of(
        any_qos, graphic_qos, narrow_video, audio_languages, video_qos,
        audio_qos,
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(points=POINTS, cost=money)
def test_user_offer_equals_an_always_constructing_reference(points, cost):
    offer = offer_of(points, cost)
    assert derive_user_offer(offer) == reference_user_offer(offer)


@settings(max_examples=100, deadline=None)
@given(
    others=st.lists(narrow_video, max_size=9), place=st.integers(min_value=0),
)
def test_a_point_that_is_already_the_worst_is_handed_back(others, place):
    """The motivating case — many videos, one of them the minimum: once
    the running merge reaches the minimum nothing more is built, and a
    minimum that comes first is itself the slot."""
    floor = VideoQoS(ColorMode.GREY, 10, 240)
    points = list(others)
    points.insert(place % (len(points) + 1), floor)
    with counted(VideoQoS, "__post_init__") as built:
        derived = derive_user_offer(offer_of(points))
    reached = points.index(floor)
    assert derived.video == floor
    assert built["__post_init__"] <= max(reached - 1, 0)
    if reached == 0:
        assert derived.video is points[0]


# -- the user offer of a verdict, memoised ------------------------------------------

TIMES = (
    TimeProfile(),
    TimeProfile(delivery_deadline_s=5.0, choice_period_s=20.0),
    TimeProfile(delivery_deadline_s=90.0, choice_period_s=120.0),
)
RICH, POOR = 10_000, 1  # every offer affordable / none: FAILEDWITHOFFER


def memo_deployment():
    """Nine offers over two monomedia on three servers of six streams
    each, planned through one cache: every request shares one space
    and its memoised orders."""
    manager = grid_manager(
        [grid_document([GRID_FLAVOURS[:3]] * 2)], stream_caps=(6, 6, 6),
        cache=NegotiationCache(),
    )
    return manager, ClientMachine("walker", access_point="client-net")


def timed_request(manager, client, time, budget_cents):
    base = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[2], budget_cents)
    profile = replace(base, desired=replace(base.desired, time=time))
    return profile, manager.negotiate("doc.grid", profile, client)


def check_user_offer(profile, result, spaces):
    """The verdict's user offer is the definition's, and the memo that
    served it is the one shared space's, within its bound."""
    spaces.add(id(result.offer_space))
    assert len(spaces) == 1
    assert len(result.offer_space.user_offers) <= ORDER_MEMO_SIZE
    if result.chosen is None:
        assert result.user_offer is None
        return
    assert result.user_offer == derive_user_offer(
        result.chosen.offer, profile.desired.time
    )
    assert result.user_offer.time == profile.desired.time


REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(TIMES), st.sampled_from([RICH, POOR]), st.booleans(),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(requests=REQUESTS)
def test_a_verdicts_user_offer_is_the_definitions(requests):
    """Repeated requests over one memoised order, under three time
    profiles; a kept commitment fills the servers, so later walks may
    choose later offers."""
    manager, client = memo_deployment()
    spaces = set()
    for time, budget, keep in requests:
        profile, result = timed_request(manager, client, time, budget)
        check_user_offer(profile, result, spaces)
        if result.commitment is not None and not keep:
            result.commitment.reject(manager.clock.now())


def test_the_memo_hits_evicts_and_stays_the_definition():
    """A scripted run that reaches every case: a hit hands back the
    very profile the miss made, a FAILEDWITHOFFER verdict is served
    like a SUCCEEDED one, distinct time profiles of one offer are
    distinct entries, and more keys than the bound evict the oldest
    first."""
    manager, client = memo_deployment()
    spaces = set()
    statuses = Counter()
    model = {}  # the memo's keys in the order they were made

    def verdict(time, budget):
        profile, result = timed_request(manager, client, time, budget)
        check_user_offer(profile, result, spaces)
        statuses[result.status] += 1
        if result.chosen is not None:
            key = (result.chosen.offer.offer_id, time)
            if key not in model:
                if len(model) >= ORDER_MEMO_SIZE:
                    del model[next(iter(model))]
                model[key] = None
        assert list(result.offer_space.user_offers) == list(model)
        return result

    seen = []
    for time, budget in itertools.product(TIMES, (RICH, POOR)):
        seen.append(verdict(time, budget))
        seen[-1].commitment.reject(manager.clock.now())
    # Nothing was kept: each time profile's two verdicts chose one
    # offer (from two orders, the budgets differ), and the second was
    # served from the memo.
    assert [r.status for r in seen[:2]] == [
        NegotiationStatus.SUCCEEDED, NegotiationStatus.FAILED_WITH_OFFER,
    ]
    for first, second in zip(seen[::2], seen[1::2]):
        assert first.chosen.offer.offer_id == second.chosen.offer.offer_id
        assert first.user_offer is second.user_offer
    assert len(model) == len(TIMES)
    # More time profiles of that offer than the memo keeps: the
    # oldest entries go first.
    for deadline in range(1, ORDER_MEMO_SIZE + 1):
        late = TimeProfile(delivery_deadline_s=float(deadline))
        verdict(late, RICH).commitment.reject(manager.clock.now())
    assert len(model) == ORDER_MEMO_SIZE
    assert not any(("offer-1", time) in model for time in TIMES)
    # Keep every commitment: once the first offer's servers are full
    # the walk chooses a later offer, a new entry per time profile.
    for step in range(3 * len(TIMES)):
        verdict(TIMES[step % len(TIMES)], RICH)
    assert statuses[NegotiationStatus.FAILED_WITH_OFFER] == len(TIMES)
    assert {offer_id for offer_id, _ in model} == {"offer-1", "offer-8"}


# -- the resilient configuration, pinned ---------------------------------------------


def scripted_run(drive=commit):
    """Thirty commits of a three-monomedia document with a retry policy
    and a breaker armed, under transient refusals, slow admissions,
    lost releases and a crash, with the telemetry hub counting; each
    commit is made by ``drive`` (``try_commit`` or a drained
    ``iter_commit``)."""
    clock = ManualClock()
    telemetry = Telemetry(clock=clock, seed=0)
    breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=4.0)
    manager, space = grid_walk(
        3, clock=clock, telemetry=telemetry, health=breaker, retry_seed=7,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.2),
    )
    plan = FaultPlan(
        (
            FaultSpec(FaultKind.TRANSIENT_REFUSAL, "server-a", value=5),
            FaultSpec(
                FaultKind.SLOW_ADMISSION, "server-b", start_s=3.0,
                duration_s=10.0, value=2.0, probability=0.5,
            ),
            FaultSpec(
                FaultKind.LOST_RELEASE, "transport", start_s=8.0,
                duration_s=4.0, probability=0.5,
            ),
        ),
        seed=3,
    )
    servers = manager.committer.servers
    FaultInjector(plan, clock=clock).install(
        servers, manager.committer.transport
    )
    outcomes = []
    for step in range(30):
        if step == 12:
            servers["server-c"].crash()
        if step == 18:
            servers["server-c"].restart()
        bundle = drive(
            manager, space, index=step % space.offer_count,
            holder=f"holder-{step}",
        )
        outcomes.append(bundle is not None)
        if bundle is not None:
            manager.committer.release(bundle)
        clock.advance(1.0)
    return accounting(outcomes, manager.committer, telemetry, breaker)


def accounting(outcomes, committer, telemetry, breaker):
    """What a run's commits left in the stats, counters and breaker."""
    return {
        "outcomes": "".join("+" if ok else "-" for ok in outcomes),
        "stats": (
            committer.stats.attempts, committer.stats.retries,
            committer.stats.breaker_skips,
        ),
        "counters": {
            key: value
            for key, value in telemetry.metrics.snapshot()["counters"].items()
            if key.startswith(("admission.", "commitment."))
        },
        "breaker": {
            server_id: (
                record.state.value, record.consecutive_failures,
                record.successes, record.failures, record.opened_at,
            )
            for server_id, record in sorted(breaker._health.items())
        },
        "opens": breaker.opens,
    }


# Taken from the wrapper that built a closure and a lambda per call.
PINNED = {
    "outcomes": "-++++-++++++-+---+++++++++++++",
    "stats": (183, 21, 0),
    "counters": {
        "admission.attempts{target=network}": 78.0,
        "admission.attempts{target=server-a}": 33.0,
        "admission.attempts{target=server-b}": 37.0,
        "admission.attempts{target=server-c}": 35.0,
        "admission.refusals{target=server-a}": 1.0,
        "admission.refusals{target=server-b}": 1.0,
        "admission.refusals{target=server-c}": 4.0,
        "admission.retries{target=server-a}": 4.0,
        "admission.retries{target=server-b}": 9.0,
        "admission.retries{target=server-c}": 8.0,
        "commitment.rollbacks": 6.0,
    },
    "breaker": {
        "server-a": ("closed", 0, 28, 5, None),
        "server-b": ("closed", 0, 27, 10, None),
        "server-c": ("closed", 0, 23, 12, None),
    },
    "opens": 5,
}


def test_resilient_calls_are_counted_as_they_were():
    assert scripted_run() == PINNED


def refused_run(drive):
    """Under a retry policy and a breaker, one commit refused by a full
    server and one refused by a failed access link: neither refusal is
    retried, and neither is held against a server's breaker."""
    clock = ManualClock()
    telemetry = Telemetry(clock=clock, seed=0)
    breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=4.0)
    manager, space = grid_walk(
        2, clock=clock, telemetry=telemetry, health=breaker,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.2),
    )
    for server in manager.committer.servers.values():
        server.admission = type(server.admission)(
            disk=server.disk, max_streams=1
        )
    first = drive(manager, space, holder="first")
    outcomes = [first is not None]
    outcomes.append(drive(manager, space, holder="full") is not None)
    manager.committer.release(first)
    topology = manager.committer.transport.topology
    topology.link_between("client-net", "backbone").set_congestion(1.0)
    outcomes.append(drive(manager, space, holder="cut-off") is not None)
    return accounting(outcomes, manager.committer, telemetry, breaker)


# The same run through iter_commit, which takes each offer's variants
# in (server, monomedia) order; pinned from the wrapper that handed
# every call to one generic resilience routine.
PINNED_COOPERATIVE = {
    "outcomes": "-++++-++++++-+---+++++++++++++",
    "stats": (187, 21, 0),
    "counters": {
        "admission.attempts{target=network}": 80.0,
        "admission.attempts{target=server-a}": 35.0,
        "admission.attempts{target=server-b}": 37.0,
        "admission.attempts{target=server-c}": 35.0,
        "admission.refusals{target=server-a}": 1.0,
        "admission.refusals{target=server-b}": 1.0,
        "admission.refusals{target=server-c}": 4.0,
        "admission.retries{target=server-a}": 4.0,
        "admission.retries{target=server-b}": 9.0,
        "admission.retries{target=server-c}": 8.0,
        "commitment.rollbacks": 6.0,
    },
    "breaker": {
        "server-a": ("closed", 0, 30, 5, None),
        "server-b": ("closed", 0, 27, 10, None),
        "server-c": ("closed", 0, 23, 12, None),
    },
    "opens": 5,
}

# Pinned from the same wrapper; try_commit and iter_commit agree.
PINNED_REFUSALS = {
    "outcomes": "+--",
    "stats": (7, 0, 0),
    "counters": {
        "admission.attempts{target=network}": 3.0,
        "admission.attempts{target=server-a}": 3.0,
        "admission.attempts{target=server-b}": 1.0,
        "admission.refusals{target=network}": 1.0,
        "admission.refusals{target=server-a}": 1.0,
        "commitment.rollbacks": 2.0,
    },
    "breaker": {
        "server-a": ("closed", 0, 2, 0, None),
        "server-b": ("closed", 0, 1, 0, None),
    },
    "opens": 0,
}


def test_cooperative_resilient_calls_are_counted_as_they_were():
    assert scripted_run(drained) == PINNED_COOPERATIVE


@pytest.mark.parametrize("drive", [commit, drained])
def test_a_refusal_is_counted_once_and_never_retried(drive):
    assert refused_run(drive) == PINNED_REFUSALS


def crashed_run(drive):
    """Under a breaker and no retry policy, one commit refused by a
    crashed fleet, then one made once it is back: the crash is counted
    once and held against the server that refused."""
    clock = ManualClock()
    telemetry = Telemetry(clock=clock, seed=0)
    breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=4.0)
    manager, space = grid_walk(
        2, clock=clock, telemetry=telemetry, health=breaker,
    )
    servers = manager.committer.servers.values()
    for server in servers:
        server.crash()
    outcomes = [drive(manager, space, holder="down") is not None]
    for server in servers:
        server.restart()
    outcomes.append(drive(manager, space, holder="up") is not None)
    return accounting(outcomes, manager.committer, telemetry, breaker)


# Pinned from the wrapper that handed every call to one generic
# resilience routine; try_commit and iter_commit agree.
PINNED_CRASH = {
    "outcomes": "-+",
    "stats": (5, 0, 0),
    "counters": {
        "admission.attempts{target=network}": 2.0,
        "admission.attempts{target=server-a}": 2.0,
        "admission.attempts{target=server-b}": 1.0,
        "admission.refusals{target=server-a}": 1.0,
        "commitment.rollbacks": 1.0,
    },
    "breaker": {
        "server-a": ("closed", 0, 1, 1, None),
        "server-b": ("closed", 0, 1, 0, None),
    },
    "opens": 0,
}


@pytest.mark.parametrize("drive", [commit, drained])
def test_a_crash_without_a_policy_is_held_against_the_breaker(drive):
    assert crashed_run(drive) == PINNED_CRASH
