"""Stress: a full adaptive service period with random congestion.

Everything at once — Poisson arrivals, Zipf popularity, mixed profiles,
monitoring, automatic adaptation, random link/server congestion
episodes — then the books must balance exactly.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sim import (
    RunConfig,
    ScenarioSpec,
    SmartNegotiator,
    WorkloadSpec,
    build_scenario,
    generate_requests,
    run_workload,
)

SEED = 1996

# The congestion episodes the seeded draw below produces, as
# (target kind, target, start s, duration s, severity).  Pinned so the
# draw cannot drift silently.
EPISODES = (
    ("link", "L-server-c", 171.80633363680505, 41.376511722652786, 0.979600941126133),
    ("server", "server-c", 188.8067804616593, 3.3221534845202894, 0.9034894261523355),
    ("link", "L-server-a", 235.66772478610795, 51.78649509300103, 0.9482850981617913),
    ("server", "server-c", 621.3103128609431, 7.7960504016986, 0.9706883045867075),
    ("server", "server-b", 650.730188912469, 1.2496585977721655, 0.9324258021143617),
    ("link", "L-client-3", 651.1164650763442, 24.27751892676992, 0.9500463656568241),
    ("link", "L-client-3", 762.1798108032842, 0.9464916792504601, 0.9620142299982051),
    ("link", "L-server-c", 1084.5623815732642, 16.42163469525483, 0.9547209850119827),
    ("link", "L-client-1", 1259.6713154511283, 14.079234039037942, 0.9337898303224499),
    ("server", "server-b", 1399.790661375673, 19.42094704316395, 0.9130369930895),
    ("server", "server-c", 1405.5631738840254, 9.53714593511556, 0.9422713828289315),
    ("link", "L-client-1", 1453.84938141408, 3.348240683176128, 0.9955278053490894),
    ("link", "L-server-b", 1473.9589147638096, 7.8617192358259524, 0.9086535317698834),
    ("link", "L-client-1", 1489.6676388068176, 5.578014249739807, 0.9734094974163806),
    ("server", "server-b", 1521.846503214557, 57.59816755359576, 0.9986379888631597),
    ("link", "L-server-a", 1589.3028934257786, 43.3661060267792, 0.9900100699179204),
    ("link", "L-server-a", 1770.1209364314518, 1.920514776356429, 0.9923049529655406),
)


def draw_congestion(scenario, seed):
    """Poisson episode starts (0.01/s) over the 1800 s horizon; each
    episode picks a uniform target (links and servers pooled), an
    exponential duration (mean 25 s) and a uniform severity in
    [0.9, 1.0)."""
    rng = np.random.default_rng(seed)
    targets = [("link", link.link_id) for link in scenario.topology.links()]
    targets += [("server", server_id) for server_id in scenario.servers]
    episodes = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / 0.01))
        if t >= 1800.0:
            return tuple(episodes)
        kind, target_id = targets[int(rng.integers(len(targets)))]
        duration = float(rng.exponential(25.0)) + 1e-3
        episodes.append(
            (kind, target_id, t, duration, float(rng.uniform(0.9, 1.0)))
        )


def run_stress_day():
    """The seeded day: ``(stats, scenario, episodes, requests offered)``."""
    scenario = build_scenario(
        ScenarioSpec(server_count=3, client_count=3, document_count=6)
    )
    requests = generate_requests(
        WorkloadSpec(arrival_rate_per_s=0.12, horizon_s=1800.0),
        scenario.document_ids(),
        list(scenario.clients),
        rng=SEED,
    )
    episodes = draw_congestion(scenario, SEED)
    kinds = {"link": FaultKind.LINK_FLAP, "server": FaultKind.SERVER_BROWNOUT}
    plan = FaultPlan(tuple(
        FaultSpec(kinds[kind], target_id, start, duration, severity)
        for kind, target_id, start, duration, severity in episodes
    ))
    FaultInjector(plan).install(scenario.servers, scenario.transport).arm(
        scenario.loop
    )
    stats = run_workload(
        scenario,
        SmartNegotiator(scenario.manager),
        requests,
        config=RunConfig(adaptation_enabled=True),
    )
    return stats, scenario, episodes, len(requests)


@pytest.fixture(scope="module")
def stats_and_scenario():
    return run_stress_day()


class TestStressDay:
    def test_every_request_accounted(self, stats_and_scenario):
        stats, _, _, offered = stats_and_scenario
        assert stats.statuses.total == offered
        assert (
            stats.completed_sessions + stats.aborted_sessions
            == stats.statuses.served
        )

    def test_served_sessions_exist(self, stats_and_scenario):
        stats, _, _, _ = stats_and_scenario
        assert stats.completed_sessions > 20

    def test_congestion_actually_happened(self, stats_and_scenario):
        _, _, episodes, _ = stats_and_scenario
        assert episodes == EPISODES
        assert len(episodes) > 3

    def test_adaptations_occurred(self, stats_and_scenario):
        stats, _, _, _ = stats_and_scenario
        # With >3 severe episodes across 30 minutes of sessions, at
        # least some session adapted or got degraded.
        assert (
            stats.adaptations + stats.failed_adaptations
            + int(stats.total_degraded_s > 0)
        ) > 0

    def test_books_balance_at_end(self, stats_and_scenario):
        _, scenario, _, _ = stats_and_scenario
        assert scenario.transport.flow_count == 0
        assert scenario.topology.total_reserved_bps() == pytest.approx(0.0)
        assert all(
            server.stream_count == 0 for server in scenario.servers.values()
        )

    def test_revenue_consistent_with_served(self, stats_and_scenario):
        stats, _, _, _ = stats_and_scenario
        assert (stats.revenue.cents > 0) == (stats.statuses.served > 0)


def test_adaptations_do_not_follow_string_hashing():
    """Two processes with different ``PYTHONHASHSEED`` values adapt the
    same sessions in the same order: the monitor must not walk a set of
    holder strings in hash order."""
    root = pathlib.Path(__file__).resolve().parents[2]
    code = (
        "from tests.integration.test_stress_day import run_stress_day\n"
        "stats = run_stress_day()[0]\n"
        "print(stats.adaptations, stats.failed_adaptations,"
        " stats.attempts_total, stats.statuses.as_dict())\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(root / "src"), env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
