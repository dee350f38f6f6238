"""Every lint rule has a flagging fixture and a passing fixture.

The fixtures are real files under ``tests/analysis/fixtures`` — the
same files the CLI-level tests lint as directories — so the unit tests
and the end-to-end behaviour can never drift apart.  One table covers
the per-file and the whole-program rules alike; a rule may own more
than one pair (the retired REP002/REP010 fixtures now sit under the
rules that catch them, REP013 and REP014).
"""

import pathlib
import re

import pytest

from repro.analysis import LintEngine
from repro.analysis.registry import all_rules

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"

RULE_FIXTURES = {
    "REP001": [
        ("flagging/rep001_flag.py", "passing/rep001_pass.py"),
        ("flagging/rep001_alias_flag.py", "passing/rep001_alias_pass.py"),
    ],
    "REP003": [("flagging/rep003_flag.py", "passing/rep003_pass.py")],
    "REP004": [("flagging/rep004_flag.py", "passing/rep004_pass.py")],
    "REP005": [("flagging/rep005_flag.py", "passing/rep005_pass.py")],
    "REP006": [("flagging/rep006_flag.py", "passing/rep006_pass.py")],
    "REP007": [("flagging/rep007_flag.py", "passing/rep007_pass.py")],
    "REP008": [("flagging/rep008_flag.py", "passing/rep008_pass.py")],
    "REP011": [("flagging/rep011_flag.py", "passing/rep011_pass.py")],
    "REP012": [("deep/flagging/rep012_flag.py", "deep/passing/rep012_pass.py")],
    "REP013": [
        ("deep/flagging/rep013_flag.py", "deep/passing/rep013_pass.py"),
        ("flagging/rep002_flag.py", "passing/rep002_pass.py"),
    ],
    "REP014": [
        (
            "deep/flagging/repro/session/rep014_flag.py",
            "deep/passing/repro/session/rep014_pass.py",
        ),
        (
            "flagging/repro/session/rep010_flag.py",
            "passing/repro/session/rep010_pass.py",
        ),
    ],
    "REP015": [
        (
            "deep/flagging/repro/session/rep015_flag.py",
            "deep/passing/repro/session/rep015_pass.py",
        ),
    ],
    "REP016": [("deep/flagging/rep016_flag.py", "deep/passing/rep016_pass.py")],
    "REP017": [
        ("deep/flagging/rep017_flag.py", "deep/passing/repro/journal/recovery.py"),
    ],
}

FIXTURE_PAIRS = [
    pytest.param(
        rule_id, flag, ok,
        id=rule_id if index == 0 else f"{rule_id}-{pathlib.Path(flag).stem}",
    )
    for rule_id, pairs in sorted(RULE_FIXTURES.items())
    for index, (flag, ok) in enumerate(pairs)
]


def findings_for(fixture: str, *rule_ids: str):
    engine = LintEngine(select=list(rule_ids) or None)
    return engine.run([FIXTURES / fixture]).findings


class TestFixturePairs:
    def test_every_rule_has_a_fixture_pair(self):
        assert sorted(RULE_FIXTURES) == [r.rule_id for r in all_rules()]

    @pytest.mark.parametrize(("rule_id", "flag", "ok"), FIXTURE_PAIRS)
    def test_flagging_fixture_flags(self, rule_id, flag, ok):
        findings = findings_for(flag, rule_id)
        assert findings, f"{flag} produced no {rule_id} findings"
        assert all(f.rule_id == rule_id for f in findings)
        assert all(f.line > 0 and f.hint for f in findings)

    @pytest.mark.parametrize(("rule_id", "flag", "ok"), FIXTURE_PAIRS)
    def test_passing_fixture_is_clean(self, rule_id, flag, ok):
        assert findings_for(ok, rule_id) == []

    @pytest.mark.parametrize(("rule_id", "flag", "ok"), FIXTURE_PAIRS)
    def test_passing_fixture_is_clean_under_every_rule(self, rule_id, flag, ok):
        """The passing fixtures double as the CLI exit-0 corpus."""
        assert findings_for(ok) == []

    def test_retired_fixtures_flag_where_the_old_rules_did(self):
        leak = findings_for("flagging/rep002_flag.py", "REP013")
        assert [f.line for f in leak] == [7]
        flips = findings_for("flagging/repro/session/rep010_flag.py", "REP014")
        assert [f.line for f in flips] == [12, 15, 19]


def design_section_7_tables():
    """``{first header cell: [row ids]}`` for each table in DESIGN §7."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("\n## 7. ", 1)[1].split("\n## 8. ", 1)[0]
    tables: dict[str, list[str]] = {}
    header = None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = cells[0]
            tables[header] = []
        elif re.fullmatch(r"REP\d{3}", cells[0]):
            tables[header].append(cells[0])
    return tables


class TestDesignTable:
    def test_live_rule_table_lists_exactly_the_registry(self):
        tables = design_section_7_tables()
        assert tables["Rule"] == [r.rule_id for r in all_rules()]

    def test_retired_rules_are_not_registered(self):
        retired = set(design_section_7_tables()["Retired"])
        assert retired == {"REP002", "REP009", "REP010"}
        assert not retired & {r.rule_id for r in all_rules()}


class TestRuleSpecifics:
    def test_rep001_exempts_the_sanctioned_wrappers(self):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        engine = LintEngine(select=["REP001"])
        assert engine.check_source(
            source, path="src/repro/util/clock.py", module="repro.util.clock"
        ) == []
        assert engine.check_source(source, path="src/repro/sim/run.py")

    def test_rep003_backstop_requires_justification(self):
        source = (
            "def f(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:  # reprolint: backstop\n"
            "        return None\n"
        )
        engine = LintEngine(select=["REP003"])
        findings = engine.check_source(source)
        assert len(findings) == 1
        assert "justification" in findings[0].message

    def test_rep004_allows_integer_equality(self):
        engine = LintEngine(select=["REP004"])
        assert engine.check_source("ok = count == 3\n") == []

    def test_rep006_counts_capture_across_nested_loops(self):
        source = (
            "def f(loop, grid):\n"
            "    for row in grid:\n"
            "        for cell in row:\n"
            "            loop.after(1.0, lambda: cell.fire(row))\n"
        )
        findings = LintEngine(select=["REP006"]).check_source(source)
        assert len(findings) == 1
        assert "cell" in findings[0].message and "row" in findings[0].message

    def test_rep007_exempts_the_defining_modules(self):
        engine = LintEngine(select=["REP007"])
        source = "WIDTH = 1920\n"
        assert engine.check_source(
            source, path="src/repro/documents/media.py"
        ) == []
        assert engine.check_source(source, path="src/repro/ui/widgets.py")
