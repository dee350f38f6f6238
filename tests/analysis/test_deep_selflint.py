"""The repo must also lint clean under the whole-program rules alone:
no reservation leaks, unjournaled flips, or concurrency hazards in
``src/repro``, with only inline pragmas to excuse a finding.
"""

import pathlib

from repro.analysis import LintEngine
from repro.analysis.registry import ProjectRule, all_rules

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestDeepSelfLint:
    def test_src_is_clean_under_the_whole_program_rules(self):
        deep_ids = [r.rule_id for r in all_rules() if isinstance(r, ProjectRule)]
        engine = LintEngine(select=deep_ids)
        assert engine.file_rules == []
        assert len(engine.project_rules) == len(deep_ids) > 0
        report = engine.run([REPO_ROOT / "src"])
        formatted = "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )
        assert report.findings == [], f"deep lint findings:\n{formatted}"
        assert report.errors == []
        assert report.files_checked > 90
