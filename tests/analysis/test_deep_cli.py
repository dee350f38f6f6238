"""CLI behaviour of the whole-program rules under ``python -m repro lint``."""

import pathlib

import pytest

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestDeepFlag:
    def test_deep_flagging_fixtures_report_every_deep_rule(self, capsys):
        code = main([
            "lint", str(FIXTURES / "deep" / "flagging"),
            str(FIXTURES / "deeppkg"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        for rule_id in (
            "REP012", "REP013", "REP014", "REP015", "REP016", "REP017",
        ):
            assert rule_id in out, f"{rule_id} missing from lint output"

    def test_list_rules_marks_the_whole_program_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP012" in out and "REP017" in out
        assert "[whole program]" in out

    @pytest.mark.parametrize(
        "flag",
        [
            "--deep", "--changed", "--diff-base", "--cache-dir", "--no-cache",
            "--baseline", "--no-baseline", "--update-baseline",
        ],
    )
    def test_removed_modes_are_rejected_by_argparse(self, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["lint", str(FIXTURES / "deeppkg"), flag])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
