"""The SLO gate end to end: nominal passes, brownout breaches, and
every artifact is byte-identical across same-seed invocations."""

import pytest

from repro.cli import main
from repro.sim import SloRunSpec, run_slo
from repro.telemetry import read_timeseries_jsonl, write_flamegraph
from repro.util.errors import SimulationError

NOMINAL = SloRunSpec(horizon_s=60.0)
BROWNOUT = SloRunSpec(
    scenario="brownout", horizon_s=60.0,
    brownout_start_s=15.0, brownout_duration_s=30.0,
)


@pytest.fixture(scope="module")
def nominal():
    return run_slo(NOMINAL)


@pytest.fixture(scope="module")
def brownout():
    return run_slo(BROWNOUT)


class TestScenarios:
    def test_nominal_passes_every_slo(self, nominal):
        assert not nominal.breached
        assert all(not r.breached for r in nominal.slo.results)

    def test_brownout_breaches_with_burn_alerts(self, brownout):
        assert brownout.breached
        breached = [r for r in brownout.slo.results if r.breached]
        assert breached
        assert any(r.alerts for r in brownout.slo.results)

    def test_the_brownout_is_the_only_difference(self, nominal, brownout):
        # Same seeds, same arrivals — the fault plan is the whole delta.
        assert (nominal.run.report.offered_rate_per_s
                == brownout.run.report.offered_rate_per_s)

    def test_profile_covers_the_delivered_negotiations(self, nominal):
        assert nominal.profile.paths == len(nominal.paths)
        assert nominal.profile.paths > 0
        assert nominal.profile.top_bottleneck is not None

    def test_report_dict_carries_cell_slo_and_profile(self, nominal):
        document = nominal.as_dict()
        assert document["schema"] == "repro.slo-run/v1"
        assert document["breached"] is False
        assert document["slo"]["slos"]
        assert document["profile"]["paths"] == nominal.profile.paths

    def test_bad_scenarios_are_rejected(self):
        with pytest.raises(SimulationError, match="scenario"):
            SloRunSpec(scenario="meltdown")


class TestDeterminism:
    def test_artifacts_are_byte_identical_across_runs(
        self, nominal, tmp_path
    ):
        again = run_slo(NOMINAL)
        assert nominal.recorder is not None and again.recorder is not None
        assert (nominal.recorder.to_jsonl_lines()
                == again.recorder.to_jsonl_lines())
        one, two = tmp_path / "a.folded", tmp_path / "b.folded"
        write_flamegraph(one, {"nominal": nominal.paths})
        write_flamegraph(two, {"nominal": again.paths})
        assert one.read_bytes() == two.read_bytes()
        assert nominal.slo.as_dict() == again.slo.as_dict()


CLI_ARGS = [
    "--horizon", "60", "--brownout-start", "15",
    "--brownout-duration", "30",
]


class TestCli:
    def test_nominal_exits_zero_and_writes_artifacts(
        self, capsys, tmp_path
    ):
        timeseries = tmp_path / "ts.jsonl"
        flamegraph = tmp_path / "fg.folded"
        code = main(["slo", *CLI_ARGS,
                     "--timeseries", str(timeseries),
                     "--flamegraph", str(flamegraph)])
        assert code == 0
        assert "SLO scorecard" in capsys.readouterr().out
        dump = read_timeseries_jsonl(timeseries)
        assert dump.header["samples"] > 0
        assert flamegraph.read_text(encoding="utf-8").startswith("nominal;")

    def test_brownout_exits_nonzero(self, capsys):
        code = main(["slo", "--scenario", "brownout", *CLI_ARGS])
        assert code == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_profile_names_a_bottleneck_per_multiplier(
        self, capsys, tmp_path
    ):
        flamegraph = tmp_path / "profile.folded"
        code = main(["profile", "--horizon", "60", "--multipliers", "1",
                     "--flamegraph", str(flamegraph)])
        assert code == 0
        out = capsys.readouterr().out
        assert "top bottleneck" in out
        assert flamegraph.read_text(encoding="utf-8").startswith("x1;")
