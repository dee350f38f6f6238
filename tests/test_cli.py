"""Command-line interface."""

import pytest

from repro.cli import (
    DEMO_FAULTS,
    EXPERIMENT_INDEX,
    build_parser,
    build_spec,
    main,
)
from repro.faults import FaultPlan, RetryPolicy, parse_fault_spec
from repro.sim import (
    ArrivalSpec,
    ChaosSpec,
    CrashRecoverySpec,
    LoadSpec,
    ScenarioSpec,
    SloRunSpec,
    StormSpec,
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.profile == "balanced"

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--negotiator", "static", "--rate", "0.3", "--seed", "9"]
        )
        assert args.negotiator == "static"
        assert args.arrival_rate_per_s == 0.3
        assert args.seed == 9

    def test_unknown_negotiator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--negotiator", "magic"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.faults == []
        assert args.seed == 1
        assert args.requests == 4

    def test_chaos_repeatable_faults(self):
        args = build_parser().parse_args(
            ["chaos", "--fault", "crash:server-a:5:10",
             "--fault", "flap:L-client-1:20:5", "--seed", "7"]
        )
        assert args.faults == [
            "crash:server-a:5:10", "flap:L-client-1:20:5"
        ]
        assert args.seed == 7


def demo_plan(seed):
    return FaultPlan(
        tuple(parse_fault_spec(text) for text in DEMO_FAULTS), seed=seed
    )


class TestEveryFlagReachesItsSpec:
    """``build_spec`` feeds a field from the flag whose ``dest`` is the
    field's name, so a renamed field or ``dest`` would silently fall
    back to the spec's default.  Per command: every flag at a
    non-default value gives the spec a caller would have built by
    keyword, every flag is either parsed here or only shapes the
    output, and no flags at all gives the spec's own defaults."""

    # command -> (flags at non-default values, the spec they must build)
    CASES = {
        "chaos": (
            "--fault crash:server-b:5:10 --seed 9 --requests 7 --servers 2 "
            "--spacing 2.5 --profile economy --lease-ttl 45 "
            "--max-attempts 5 --telemetry t.jsonl",
            lambda: ChaosSpec(
                scenario=ScenarioSpec(server_count=2),
                plan=FaultPlan(
                    (parse_fault_spec("crash:server-b:5:10"),), seed=9
                ),
                seed=9,
                requests=7,
                request_spacing_s=2.5,
                profile_name="economy",
                retry=RetryPolicy(max_attempts=5),
                lease_ttl_s=45.0,
                telemetry_seed=9,
                telemetry_jsonl="t.jsonl",
            ),
        ),
        "stats": (
            "--seed 9 --requests 7 --servers 2 --profile economy "
            "--telemetry t.jsonl",
            lambda: ChaosSpec(
                scenario=ScenarioSpec(server_count=2),
                plan=demo_plan(9),
                seed=9,
                requests=7,
                profile_name="economy",
                telemetry_seed=9,
                telemetry_jsonl="t.jsonl",
            ),
        ),
        "recover": (
            "--seed 9 --requests 7 --servers 2 --spacing 2.5 "
            "--profile economy --crash-after 6 --journal j.wal "
            "--telemetry t.jsonl",
            lambda: CrashRecoverySpec(
                scenario=ScenarioSpec(server_count=2),
                seed=9,
                requests=7,
                request_spacing_s=2.5,
                profile_name="economy",
                crash_opportunity=6,
                journal_path="j.wal",
                telemetry_seed=9,
                telemetry_jsonl="t.jsonl",
            ),
        ),
        "storm": (
            "--sessions 60 --late-requests 12 --severity 0.7 "
            "--brownout-start 50 --brownout-duration 30 --servers 4 "
            "--seed 9 --profile economy --no-backpressure "
            "--telemetry t.jsonl",
            lambda: StormSpec(
                sessions=60,
                late_requests=12,
                severity=0.7,
                brownout_start_s=50.0,
                brownout_duration_s=30.0,
                servers=4,
                seed=9,
                profile_name="economy",
                backpressure=False,
                telemetry_seed=9,
                telemetry_jsonl="t.jsonl",
            ),
        ),
        "load": (
            "--arrivals flash --rate 2.5 --horizon 45 --multipliers 1,3 "
            "--servers 4 --clients 5 --seed 9 --scheduler-seed 4 "
            "--profile economy --no-gate",
            lambda: LoadSpec(
                arrival=ArrivalSpec(
                    kind="flash", rate_per_s=2.5, horizon_s=45.0
                ),
                multipliers=(1.0, 3.0),
                servers=4,
                clients=5,
                seed=9,
                scheduler_seed=4,
                profile_name="economy",
                use_gate=False,
            ),
        ),
        "profile": (
            "--rate 2.5 --horizon 45 --multipliers 1,3 --seed 9 "
            "--scheduler-seed 4 --telemetry-seed 3",
            lambda: LoadSpec(
                arrival=ArrivalSpec(rate_per_s=2.5, horizon_s=45.0),
                multipliers=(1.0, 3.0),
                seed=9,
                scheduler_seed=4,
                telemetry_seed=3,
            ),
        ),
        "slo": (
            "--scenario brownout --multiplier 2 --rate 2.5 --horizon 45 "
            "--seed 9 --scheduler-seed 4 --telemetry-seed 3 "
            "--interval 0.5 --severity 0.5 --brownout-start 10 "
            "--brownout-duration 20",
            lambda: SloRunSpec(
                scenario="brownout",
                multiplier=2.0,
                rate_per_s=2.5,
                horizon_s=45.0,
                seed=9,
                scheduler_seed=4,
                telemetry_seed=3,
                interval_s=0.5,
                severity=0.5,
                brownout_start_s=10.0,
                brownout_duration_s=20.0,
            ),
        ),
    }
    # Flags that pick what is printed or written, not what is run.
    OUTPUT_ONLY = {
        "--help", "--json", "--output", "--compare", "--journal-describe",
        "--timeseries", "--flamegraph", "--report",
        # `stats --mode workload` runs no spec; its flags feed
        # `WorkloadSpec`, which `test_sweep_options` covers.
        "--mode", "--rate", "--horizon",
    }
    DEFAULTS = {
        "chaos": lambda: ChaosSpec(plan=demo_plan(1)),
        "stats": lambda: ChaosSpec(plan=demo_plan(1), telemetry_seed=1),
        "recover": CrashRecoverySpec,
        "storm": StormSpec,
        "load": LoadSpec,
        "profile": lambda: LoadSpec(
            telemetry_seed=7, multipliers=(0.5, 1.0, 2.0, 4.0)
        ),
        "slo": SloRunSpec,
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_every_flag_lands_in_its_field(self, command):
        flags, expected = self.CASES[command]
        args = build_parser().parse_args([command, *flags.split()])
        assert build_spec(args) == expected()

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_no_flag_is_left_out(self, command):
        subcommands = build_parser()._subparsers._group_actions[0].choices
        offered = {
            option
            for action in subcommands[command]._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        parsed = {
            word for word in self.CASES[command][0].split()
            if word.startswith("--")
        }
        assert offered - parsed <= self.OUTPUT_ONLY
        assert parsed <= offered

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_no_flags_is_the_specs_own_defaults(self, command):
        spec = build_spec(build_parser().parse_args([command]))
        assert spec == self.DEFAULTS[command]()


class TestCommands:
    def test_experiments_lists_index(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment_id, _, _ in EXPERIMENT_INDEX:
            assert f"| {experiment_id} " in out

    def test_demo_runs(self, capsys):
        assert main(["demo", "--documents", "1"]) == 0
        out = capsys.readouterr().out
        assert "QoS GUI" in out
        assert "SUCCEEDED" in out
        assert "completed" in out

    def test_demo_unknown_profile(self, capsys):
        assert main(["demo", "--profile", "ghost"]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_windows_renders_all(self, capsys):
        assert main(["windows", "--profile", "economy"]) == 0
        out = capsys.readouterr().out
        for title in ("QoS GUI", "Profile components", "Video profile",
                      "Audio profile", "Cost profile"):
            assert title in out

    def test_sweep_runs(self, capsys):
        assert main(
            ["sweep", "--rate", "0.05", "--horizon", "200", "--seed", "3",
             "--no-adaptation"]
        ) == 0
        out = capsys.readouterr().out
        assert "requests" in out
        assert "SUCCEEDED" in out or "FAILED" in out

    def test_sweep_each_negotiator(self, capsys):
        for name in ("static", "cost-only"):
            assert main(
                ["sweep", "--negotiator", name, "--rate", "0.02",
                 "--horizon", "200"]
            ) == 0

    def test_chaos_demo_plan_runs_clean(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "chaos run report" in out
        assert "leaks at teardown" in out

    def test_chaos_explicit_fault(self, capsys):
        assert main(
            ["chaos", "--fault", "refuse:server-a:0:-:2",
             "--requests", "2", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "transient-refusal on server-a" in out

    def test_chaos_bad_fault_spec(self, capsys):
        assert main(["chaos", "--fault", "meteor:server-a"]) == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_chaos_unknown_profile(self, capsys):
        assert main(["chaos", "--profile", "ghost"]) == 2
        assert "unknown profile" in capsys.readouterr().err


class TestStorm:
    SMALL = ["storm", "--sessions", "60", "--late-requests", "12",
             "--seed", "3"]

    def test_storm_defaults(self):
        args = build_parser().parse_args(["storm"])
        assert args.sessions == 200
        assert args.severity == pytest.approx(0.4)
        assert args.backpressure
        assert not args.compare

    def test_small_storm_runs_clean(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "storm run report" in out
        assert "survived" in out

    def test_json_emits_the_comparison(self, capsys):
        import json

        assert main(self.SMALL + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["with_backpressure"]["backpressure"] is True
        assert document["without_backpressure"]["backpressure"] is False
        assert "demonstrates_thrash" in document

    def test_bare_flag_conflicts_with_compare(self, capsys):
        assert main(self.SMALL + ["--no-backpressure", "--json"]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_bad_severity_rejected(self, capsys):
        assert main(["storm", "--severity", "0"]) == 2
        assert "bad storm run" in capsys.readouterr().err

    def test_zero_servers_names_the_flag_passed(self, capsys):
        assert main(["storm", "--servers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "bad storm run: need at least one server\n"
        assert captured.out == ""

    def test_unknown_profile(self, capsys):
        assert main(["storm", "--profile", "ghost"]) == 2
        assert "unknown profile" in capsys.readouterr().err


class TestRecover:
    def test_recover_runs_leak_free(self, capsys):
        assert main(["recover", "--journal-describe"]) == 0
        out = capsys.readouterr().out
        assert "crash phase" in out
        assert "leaks after reconciliation     | none" in out
        assert "reservation journal" in out

    def test_crash_never_reached_is_a_note_not_an_error(self, capsys):
        assert main(["recover", "--crash-after", "30"]) == 0
        assert "never reached" in capsys.readouterr().err

    def test_unknown_profile(self, capsys):
        assert main(["recover", "--profile", "ghost"]) == 2
        captured = capsys.readouterr()
        assert "unknown profile" in captured.err
        assert captured.out == ""

    def test_bad_spec_rejected(self, capsys):
        assert main(["recover", "--requests", "0"]) == 2
        captured = capsys.readouterr()
        assert "need at least one request" in captured.err
        assert captured.out == ""

    def test_negative_spacing_rejected(self, capsys):
        assert main(["recover", "--spacing", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "bad recover run: request_spacing_s must be non-negative\n"
        )
        assert captured.out == ""


class TestLoadCells:
    """``load``, ``profile`` and ``slo`` all replay load cells."""

    def test_profile_names_a_bottleneck(self, capsys):
        assert main(["profile", "--multipliers", "1", "--horizon", "30"]) == 0
        assert "x1: top bottleneck" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["load", "profile"])
    def test_unparsable_multipliers(self, command, capsys):
        assert main([command, "--multipliers", "x"]) == 2
        captured = capsys.readouterr()
        assert "bad --multipliers 'x'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["load", "profile"])
    def test_non_positive_multiplier(self, command, capsys):
        assert main([command, "--multipliers", "0"]) == 2
        captured = capsys.readouterr()
        assert f"bad {command} run" in captured.err
        assert captured.out == ""

    def test_load_unknown_profile(self, capsys):
        assert main(["load", "--profile", "ghost"]) == 2
        captured = capsys.readouterr()
        assert "unknown profile" in captured.err
        assert captured.out == ""

    def test_slo_brownout_breaches(self, capsys):
        assert main(["slo", "--scenario", "brownout"]) == 1
        assert "SLO breach on the brownout scenario" in (
            capsys.readouterr().err
        )

    def test_slo_bad_spec_rejected(self, capsys):
        assert main(["slo", "--interval", "0"]) == 2
        captured = capsys.readouterr()
        assert "bad slo run" in captured.err
        assert captured.out == ""


class TestReport:
    def test_report_reads_tables(self, tmp_path, capsys):
        (tmp_path / "E01.txt").write_text("TABLE ONE\n")
        (tmp_path / "E02.txt").write_text("TABLE TWO\n")
        assert main(["report", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "TABLE ONE" in out and "TABLE TWO" in out
        assert "2 experiment tables" in out

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path / "nope")]) == 2
        assert "no results" in capsys.readouterr().err

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        assert "no tables" in capsys.readouterr().err
