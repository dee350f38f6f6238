"""Byte-for-byte pins of the linter's output over the fixture tree.

The per-rule tests check which lines each rule flags; these check
everything else a user sees: messages, columns, hints, source lines,
enclosing scopes, fingerprints, the suppressed count and the rule list.
A refactor of the analysis must leave both files unchanged.  When a
change means to move them, regenerate from the repository root with::

    PYTHONPATH=src python -m repro lint --format json tests/analysis/fixtures \
        > tests/analysis/golden/fixtures.json
    PYTHONPATH=src python -m repro lint --list-rules \
        > tests/analysis/golden/list_rules.txt
"""

import pathlib

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).parent / "golden"


def lint_stdout(argv, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestLintGolden:
    def test_fixture_findings_match_the_pinned_json(self, capsys, monkeypatch):
        code, out = lint_stdout(
            ["--format", "json", "tests/analysis/fixtures"], capsys, monkeypatch
        )
        assert code == 1
        assert out == (GOLDEN / "fixtures.json").read_text(encoding="utf-8")

    def test_rule_list_matches_the_pinned_text(self, capsys, monkeypatch):
        code, out = lint_stdout(["--list-rules"], capsys, monkeypatch)
        assert code == 0
        assert out == (GOLDEN / "list_rules.txt").read_text(encoding="utf-8")
