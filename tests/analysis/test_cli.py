"""CLI-level behaviour of ``python -m repro lint`` / ``typecheck``."""

import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestLintCommand:
    def test_flagging_fixtures_exit_nonzero(self, capsys):
        code = main(["lint", str(FIXTURES / "flagging")])
        out = capsys.readouterr().out
        assert code == 1
        for rule_id in (
            "REP001", "REP003", "REP004", "REP005",
            "REP006", "REP007", "REP008", "REP011",
        ):
            assert rule_id in out, f"{rule_id} missing from CLI output"

    def test_passing_fixtures_exit_zero(self, capsys):
        code = main(["lint", str(FIXTURES / "passing")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_json_format(self, capsys):
        code = main([
            "lint", str(FIXTURES / "flagging"),
            "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert {f["rule"] for f in payload["findings"]} >= {"REP001", "REP003"}

    def test_select_restricts_rules(self, capsys):
        code = main([
            "lint", str(FIXTURES / "flagging"),
            "--select", "REP005",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP005" in out and "REP001" not in out

    def test_select_accepts_comma_separated_rule_lists(self, capsys):
        code = main([
            "lint", str(FIXTURES / "flagging"),
            "--select", "REP005,REP001",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP005" in out and "REP001" in out
        assert "REP003" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.count("REP0") >= 9

    def test_unknown_rule_is_usage_error(self, capsys):
        code = main(["lint", "--select", "REP999", str(FIXTURES / "passing")])
        assert code == 2
        assert "REP999" in capsys.readouterr().err


class TestTypecheckCommand:
    def test_gates_gracefully_without_mypy(self, capsys, monkeypatch):
        import repro.analysis.cli as analysis_cli

        monkeypatch.setattr(analysis_cli, "mypy_available", lambda: False)
        assert main(["typecheck"]) == 0
        assert "skipped" in capsys.readouterr().err
        assert main(["typecheck", "--require-mypy"]) == 3
