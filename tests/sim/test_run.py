"""The run skeleton: what only the shared wiring can get wrong."""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.journal import (
    HolderOutcome,
    JournalRecordType,
    RecoveryManager,
    ReservationJournal,
)
from repro.sim import (
    ChaosSpec,
    CrashRecoverySpec,
    LoadSpec,
    StormSpec,
    build_scenario,
    run_chaos,
    run_crash_recovery,
    run_load_cell,
    run_storm,
)
from repro.sim import load, recover, run
from repro.sim.run import (
    Artifacts,
    RunReport,
    drain,
    inject,
    readopt_sessions,
    replay_journal,
    resilient_scenario,
    stock_profile,
    supervise,
)
from repro.telemetry import reconcile_journal
from repro.util.errors import SimulationError


def crash_at(opportunity):
    return FaultSpec(
        FaultKind.MANAGER_CRASH, "manager", value=float(opportunity)
    )


def playing_deployment(spec=ChaosSpec()):
    """A resilient deployment with one confirmed session playing."""
    scenario = resilient_scenario(
        spec.scenario,
        retry=spec.retry,
        lease_ttl_s=spec.lease_ttl_s,
        seed=spec.seed,
        telemetry_seed=spec.telemetry_seed,
    )
    runtime = scenario.runtime()
    supervisor = supervise(scenario, runtime)
    profile, client = stock_profile("balanced"), scenario.any_client()
    result = scenario.manager.negotiate(
        scenario.document_ids()[0], profile, client
    )
    session = runtime.start_session(result, profile, client)
    return scenario, runtime, supervisor, session


class TestStockProfile:
    def test_known_profile(self):
        assert stock_profile("economy").name == "economy"

    @pytest.mark.parametrize("runner, spec", [
        (run_chaos, ChaosSpec(profile_name="nope")),
        (run_storm, StormSpec(profile_name="nope")),
        (run_crash_recovery, CrashRecoverySpec(profile_name="nope")),
        (lambda spec: run_load_cell(spec, 1.0), LoadSpec(profile_name="nope")),
    ])
    def test_unknown_profile_raises_before_anything_is_built(
        self, runner, spec, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("built a deployment for a bad profile")

        for module in (run, load, recover):
            monkeypatch.setattr(module, "build_scenario", never)
        with pytest.raises(SimulationError, match="unknown profile 'nope'"):
            runner(spec)


class TestArtifacts:
    def test_inert_without_telemetry(self, tmp_path):
        scenario = build_scenario()
        trace = tmp_path / "trace.jsonl"
        artifacts = Artifacts(
            scenario, trace_jsonl=str(trace), interval_s=1.0, until=10.0
        )
        assert artifacts.exporter is None and artifacts.recorder is None
        assert scenario.loop.pending == 0
        assert artifacts.finish() == {}
        assert list(tmp_path.iterdir()) == []

    def test_records_and_exports_with_telemetry(self, tmp_path):
        scenario = build_scenario(telemetry_seed=7)
        trace = tmp_path / "trace.jsonl"
        artifacts = Artifacts(
            scenario, trace_jsonl=str(trace), interval_s=1.0, until=3.0
        )
        scenario.manager.negotiate(
            scenario.document_ids()[0],
            stock_profile("balanced"),
            scenario.any_client(),
        ).commitment.release()
        scenario.loop.run()
        timeline = artifacts.finish()
        assert timeline == artifacts.recorder.as_dict() != {}
        assert artifacts.exporter.exported == len(
            trace.read_text().splitlines()
        ) > 0


class TestManagerRestart:
    def test_two_crashes_two_restarts_no_leak(self):
        report, scenario = run_chaos(ChaosSpec(
            plan=FaultPlan((crash_at(4), crash_at(9))), requests=4,
        ))
        assert report.manager_crashes == report.recoveries == 2
        assert report.fault_stats["manager_crashes"] == 2
        assert report.clean_teardown
        assert scenario.loop.pending == 0
        assert reconcile_journal(
            scenario.manager.committer.journal
        )["balanced"]

    def test_drain_returns_one_replay_per_restart(self):
        scenario, runtime, supervisor, _session = playing_deployment()
        inject(scenario, FaultPlan((crash_at(1),)))
        replays = drain(scenario, runtime, supervisor)
        # The only append left is the teardown RELEASED: the manager
        # dies right after it, and the replay redoes the release.
        assert [r.redo_released for r in replays] == [1]
        report = RunReport()
        report.audit(scenario)
        assert report.clean_teardown

    def test_crash_hook_is_off_during_replay_and_only_then(
        self, monkeypatch
    ):
        scenario, runtime, supervisor, session = playing_deployment()
        journal = scenario.manager.committer.journal
        opportunities = []
        journal.crash_hook = opportunities.append  # the injector's seat
        during_replay = []
        replay_method = RecoveryManager.replay

        def spying_replay(self, **kwargs):
            during_replay.append(journal.crash_hook)
            return replay_method(self, **kwargs)

        monkeypatch.setattr(RecoveryManager, "replay", spying_replay)
        replay = replay_journal(scenario, supervisor)
        assert during_replay == [None]
        assert journal.crash_hook == opportunities.append
        assert readopt_sessions(
            scenario, runtime, supervisor, replay
        ) == (session.holder,)
        assert opportunities == []

        # A session the journal no longer vouches for is aborted, and
        # that RELEASED append is a crash opportunity again.
        replay.outcomes.clear()
        assert readopt_sessions(scenario, runtime, supervisor, replay) == ()
        assert [r.record_type for r in opportunities] == [
            JournalRecordType.RELEASED
        ]
        assert runtime.active_count == 0

    def test_restart_drops_the_lease_table_but_keeps_its_ttl(self):
        scenario, _runtime, supervisor, session = playing_deployment(
            ChaosSpec(lease_ttl_s=45.0)
        )
        committer = scenario.manager.committer
        assert session.holder in committer.leases
        replay_journal(scenario, supervisor)
        assert len(committer.leases) == 0
        assert committer.leases.ttl_s == 45.0

    def test_a_resumed_commitment_is_leased_in_the_restarted_table(self):
        # A pending commitment survives the restart; its expiry release
        # is swallowed, and the restarted manager's reaper collects it.
        scenario = build_scenario(
            journal=ReservationJournal(), lease_ttl_s=30.0
        )
        result = scenario.manager.negotiate(
            scenario.document_ids()[0],
            stock_profile("balanced"),
            scenario.any_client(),
        )
        holder = result.commitment.bundle.holder
        replay = replay_journal(
            scenario, supervise(scenario, scenario.runtime())
        )
        assert replay.outcomes[holder] == HolderOutcome.REARMED
        committer = scenario.manager.committer
        assert holder in committer.leases

        class SwallowRelease:
            def intercept_stream_release(self, server, stream_id):
                return True

        servers = [scenario.servers[sid] for sid in sorted(
            {s.server_id for s in result.commitment.bundle.streams}
        )]
        for server in servers:
            server.fault_hook = SwallowRelease()
        scenario.loop.run()
        for server in servers:
            server.fault_hook = None
        assert committer.reap_expired(scenario.clock.now() + 1e6) == 1
        assert holder not in committer.leases
        assert sum(s.stream_count for s in scenario.servers.values()) == 0
        assert scenario.transport.flow_count == 0
