"""The fault injector's kind index against a scan of the whole plan.

``FaultInjector`` sorts its plan's specs by kind once, at construction,
so a hook visits only the specs of its own kind and a hook whose kind
the plan lacks returns at once.  Hypothesis generates plans over every
kind, ``*`` targets, open and closed windows, refusal budgets,
crash-manager counts and firing probabilities, and one scripted
sequence of hook calls and clock advances drives an indexed injector
and ``tests.oracle.FullScanInjector`` side by side.  After every call
both must match the same ``(index, spec)`` lists for every kind and
target and give the same answer; at the end their ``FaultStats``,
budgets, crash bookkeeping and generator state must be equal.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.util.clock import ManualClock
from repro.util.errors import ReproError

from ..oracle import FullScanInjector

TARGETS = ("server-a", "server-b", "transport", "manager", "*")

VALUES = {
    FaultKind.SERVER_CRASH: st.none(),
    FaultKind.SLOW_ADMISSION: st.sampled_from([0.5, 1.0, 2.0]),
    FaultKind.TRANSIENT_REFUSAL: st.one_of(
        st.none(), st.integers(min_value=0, max_value=4).map(float)
    ),
    FaultKind.LINK_FLAP: st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0])),
    FaultKind.SERVER_BROWNOUT: st.one_of(st.none(), st.sampled_from([0.25, 1.0])),
    FaultKind.LOST_RELEASE: st.none(),
    FaultKind.MANAGER_CRASH: st.one_of(
        st.none(), st.integers(min_value=1, max_value=4).map(float)
    ),
}


@st.composite
def fault_specs(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    return FaultSpec(
        kind,
        draw(st.sampled_from(TARGETS)),
        start_s=draw(st.sampled_from([0.0, 1.0, 2.5, 4.0])),
        duration_s=draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 3.0]))),
        value=draw(VALUES[kind]),
        probability=draw(st.sampled_from([1.0, 0.9, 0.5, 0.0])),
    )


PLANS = st.builds(
    FaultPlan,
    st.lists(fault_specs(), max_size=8).map(tuple),
    seed=st.integers(min_value=0, max_value=2**16),
)
CALLS = st.lists(
    st.sampled_from([
        "admit server-a", "admit server-b", "release server-a",
        "release server-b", "release flow", "journal", "advance 0.5",
        "advance 1",
    ]),
    max_size=40,
)


def answer(call):
    """What a hook call did: its return value, or the error it raised."""
    try:
        return ("returned", call())
    except ReproError as error:
        return (type(error).__name__, str(error))


def hook(injector, call):
    verb, _, target = call.partition(" ")
    if verb == "advance":
        return lambda: injector.clock.advance(float(target))
    if verb == "journal":
        return lambda: injector._after_journal_append(None)
    if target == "flow":
        return lambda: injector.intercept_flow_release("flow-1")
    server = SimpleNamespace(server_id=target)
    if verb == "admit":
        return lambda: injector.before_admit(server, "variant", 1e6)
    return lambda: injector.intercept_stream_release(server, "stream-1")


def matches(injector):
    return {
        (kind, target): list(injector._matching(kind, target))
        for kind in FaultKind
        for target in TARGETS
    }


def state(injector):
    return (
        injector.stats,
        injector._budget,
        injector._crash_opportunities,
        injector._crashed_specs,
        injector._rng.bit_generator.state,
    )


@settings(max_examples=300, deadline=None)
@given(plan=PLANS, calls=CALLS)
def test_the_index_matches_what_a_full_scan_matches(plan, calls):
    indexed = FaultInjector(plan, clock=ManualClock())
    reference = FullScanInjector(plan, clock=ManualClock())
    assert matches(indexed) == matches(reference)
    for call in calls:
        assert answer(hook(indexed, call)) == answer(hook(reference, call))
        assert matches(indexed) == matches(reference)
    assert state(indexed) == state(reference)


def test_a_hook_without_a_spec_of_its_kind_builds_no_generator():
    """A plan of timed brownouts, as in a congestion run: the call-level
    hooks find no spec of their kind and return without a scan."""
    plan = FaultPlan(
        (FaultSpec(FaultKind.SERVER_BROWNOUT, "server-a", duration_s=5.0),)
    )
    injector = FaultInjector(plan, clock=ManualClock())
    for kind in FaultKind:
        matched = injector._matching(kind, "server-a")
        if kind is FaultKind.SERVER_BROWNOUT:
            assert list(matched) == [(0, plan.faults[0])]
        else:
            assert matched == ()
