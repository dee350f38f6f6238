"""Whole-program rule behaviour beyond the fixture table.

The REP012+ fixture pairs live in ``test_rules.py`` with every other
rule's; this module holds the headline demonstrations: leaks whose
acquisition and drop sit in different modules, cooperative-task roots,
and pragma suppression of a whole-program finding.
"""

import pathlib

from repro.analysis import LintEngine
from repro.analysis.registry import ProjectRule, all_rules
from tests.analysis.test_rules import RULE_FIXTURES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def deep_findings_for(rule_id, fixture):
    return LintEngine(select=[rule_id]).run([FIXTURES / fixture]).findings


class TestDeepFixturePairs:
    def test_every_deep_rule_has_a_fixture_pair(self):
        deep_ids = [r.rule_id for r in all_rules() if isinstance(r, ProjectRule)]
        assert deep_ids
        for rule_id in deep_ids:
            flag, ok = RULE_FIXTURES[rule_id][0]
            assert flag.startswith("deep/flagging/"), rule_id
            assert ok.startswith("deep/passing/"), rule_id

    def test_passing_tree_is_clean_under_every_deep_rule(self):
        report = LintEngine().run([FIXTURES / "deep" / "passing"])
        assert report.findings == []
        assert report.errors == []


class TestCooperativeRoots:
    """REP016 roots at cooperative-scheduler tasks, not just async."""

    def test_generator_task_in_service_package_is_a_blocking_root(self):
        findings = deep_findings_for(
            "REP016", "deep/flagging/repro/service/rep016_coop_flag.py"
        )
        assert findings, "cooperative task did not root REP016"
        assert any("cooperative task" in f.message for f in findings)
        assert any("fsync" in f.message for f in findings)

    def test_non_blocking_cooperative_task_is_clean(self):
        assert deep_findings_for(
            "REP016", "deep/passing/repro/service/rep016_coop_pass.py"
        ) == []


class TestCrossFunctionLeak:
    """The deeppkg fixture: the acquire is in pool.py, the drop in driver.py."""

    def test_interprocedural_engine_reports_it(self):
        report = LintEngine().run([FIXTURES / "deeppkg"])
        assert [f.rule_id for f in report.findings] == ["REP012"]
        (finding,) = report.findings
        assert finding.path.endswith("driver.py")
        assert "stream" in finding.message
        assert finding.context == "run_session"

    def test_whole_program_findings_carry_fingerprint_context(self):
        engine = LintEngine(select=["REP012"])
        (finding,) = engine.run([FIXTURES / "deeppkg"]).findings
        assert finding.source_line.strip().startswith("stream =")
        assert finding.fingerprint


class TestDeepSuppression:
    def test_inline_pragma_silences_a_deep_finding(self, tmp_path):
        source = (FIXTURES / "deep/flagging/rep012_flag.py").read_text()
        source = source.replace(
            "stream = reserve(server, spec)",
            "stream = reserve(server, spec)  # reprolint: disable=REP012",
        )
        target = tmp_path / "suppressed.py"
        target.write_text(source)
        report = LintEngine(select=["REP012"]).run([target])
        assert report.findings == []
        assert report.suppressed == 1


class TestSplitPackage:
    """The splitpkg fixture: one lint pass over both modules."""

    def test_one_pass_reports_the_drop_at_the_call_site_only(self):
        report = LintEngine().run([FIXTURES / "splitpkg"])
        assert [(f.rule_id, pathlib.Path(f.path).name, f.line)
                for f in report.findings] == [("REP012", "driver.py", 7)]
        assert "open_stream" in report.findings[0].source_line
        assert report.files_checked == 3
