"""E12 — step 6: the ``choicePeriod`` confirmation timer and
renegotiation.

§8: "A timer is initialized to a value choicePeriod and started at the
time the window is displayed.  If a time-out is reached before pressing
OK, the session is simply aborted."  Reserved resources sit idle while
the user decides; this experiment sweeps the user's think time against
the choice period and measures (a) how many sessions are lost to the
timer, (b) how much reservation-time is wasted by expired offers, and
(c) the renegotiation path (reject → relax profile → negotiate again).
"""

import pytest

from repro.core.profiles import MMProfile, TimeProfile, UserProfile
from repro.sim.baselines import SmartNegotiator
from repro.sim.experiment import RunConfig, run_workload
from repro.sim.scenario import ScenarioSpec, build_scenario
from repro.sim.workload import WorkloadSpec, generate_requests
from repro.util.tables import render_table

SEED = 55
SPEC = ScenarioSpec(server_count=2, client_count=2, document_count=3)
CHOICE_PERIOD = 30.0
THINK_TIMES = (5.0, 20.0, 45.0)  # the last exceeds the choice period


def profile_with_choice_period(base: UserProfile) -> UserProfile:
    time = TimeProfile(choice_period_s=CHOICE_PERIOD)
    return UserProfile(
        name=base.name,
        desired=MMProfile(
            video=base.desired.video, audio=base.desired.audio,
            image=base.desired.image, text=base.desired.text,
            cost=base.desired.cost, time=time,
        ),
        worst=MMProfile(
            video=base.worst.video, audio=base.worst.audio,
            image=base.worst.image, text=base.worst.text,
            cost=base.worst.cost, time=time,
        ),
        importance=base.importance,
    )


def run_think_time(think_s: float):
    from repro.core.profile_manager import standard_profiles

    scenario = build_scenario(SPEC)
    profiles = [profile_with_choice_period(p) for p in standard_profiles()]
    requests = generate_requests(
        WorkloadSpec(arrival_rate_per_s=0.05, horizon_s=900.0),
        scenario.document_ids(),
        list(scenario.clients),
        rng=SEED,
        profiles=profiles,
    )
    stats = run_workload(
        scenario,
        SmartNegotiator(scenario.manager),
        requests,
        config=RunConfig(
            adaptation_enabled=False, confirm_delay_s=think_s
        ),
    )
    return stats


@pytest.fixture(scope="module")
def sweep():
    return {think: run_think_time(think) for think in THINK_TIMES}


def test_e12_choice_period_sweep(benchmark, sweep, publish):
    benchmark.pedantic(
        lambda: run_think_time(THINK_TIMES[0]), rounds=3, iterations=1
    )

    rows = []
    for think, stats in sweep.items():
        reserved = stats.statuses.served
        started = stats.completed_sessions
        lost = reserved - started
        rows.append(
            (
                f"{think:g} s",
                reserved,
                started,
                lost,
                f"{min(think, CHOICE_PERIOD) * reserved:.0f} s",
            )
        )

    # Think times under the choice period lose nothing; over it, all.
    fast = sweep[THINK_TIMES[0]]
    slow = sweep[THINK_TIMES[-1]]
    assert fast.completed_sessions == fast.statuses.served
    assert slow.completed_sessions == 0
    assert slow.revenue.cents == 0

    publish(
        "E12",
        render_table(
            ("user think time", "offers reserved", "sessions started",
             "lost to timer", "reservation-time held idle"),
            rows,
            title=f"E12 - choicePeriod = {CHOICE_PERIOD:g} s vs user think "
                  "time (Sec 8 confirmation timer)",
        ),
    )


def test_e12_renegotiation_converges(benchmark, publish):
    """Reject → relax the profile → renegotiate, until acceptance: the
    §8 renegotiation loop through ``QoSManager.renegotiate``."""
    from repro.core.profile_manager import standard_profiles
    from repro.core.status import NegotiationStatus

    def renegotiate_until_accepted():
        scenario = build_scenario(SPEC)
        client = scenario.any_client()
        manager = scenario.manager
        document = scenario.document_ids()[0]
        names = ("premium", "balanced", "economy")
        by_name = {p.name: p for p in standard_profiles()}
        history = []
        result = None
        # The user keeps the best offer only if it is DESIRABLE;
        # otherwise rejects it and renegotiates with the next cheaper
        # profile (``renegotiate`` rejects the pending offer first).
        for name in names:
            if result is None:
                result = manager.negotiate(document, by_name[name], client)
            else:
                result = manager.renegotiate(
                    result, document, by_name[name], client
                )
            history.append((name, result.status.value,
                            str(result.chosen.offer.cost)
                            if result.chosen else "-"))
            if result.status is NegotiationStatus.SUCCEEDED:
                result.commitment.confirm(scenario.clock.now())
                result.commitment.release()
                return history
        if result.commitment is not None:
            result.commitment.reject(scenario.clock.now())
        return history

    history = benchmark.pedantic(
        renegotiate_until_accepted, rounds=3, iterations=1
    )
    assert history[-1][1] == "SUCCEEDED"
    publish(
        "E12b",
        render_table(
            ("profile tried", "status", "offer cost"),
            history,
            title="E12b - renegotiation loop: reject and relax until "
                  "accepted",
        ),
    )
