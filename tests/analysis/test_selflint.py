"""The repo must self-lint clean.

This is the invariant gate every future PR rides through: one pass of
every rule, per-file and whole-program, over ``src/repro`` produces
zero findings.  Sanctioned cases carry an inline pragma with a reason;
no baseline file ships, so nothing else can excuse a finding.
"""

import pathlib

from repro.analysis import LintEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestSelfLint:
    def test_src_is_clean_against_the_shipped_baseline(self):
        report = LintEngine().run([REPO_ROOT / "src"])
        formatted = "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in report.findings
        )
        assert report.findings == [], f"reprolint findings:\n{formatted}"
        assert report.errors == []
        assert report.files_checked > 90
