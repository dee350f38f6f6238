"""Engine mechanics: pragmas, fingerprints, reporters, file collection."""

import json
import pathlib

import pytest

from repro.analysis import (
    LintEngine,
    ModuleContext,
    iter_python_files,
    render_json,
    render_text,
)
from repro.analysis.findings import Finding
from repro.util.errors import ValidationError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

FLAGGING_SNIPPET = "import time\n\n\ndef now():\n    return time.time()\n"


class TestSuppression:
    def test_inline_disable_suppresses_the_line(self, tmp_path):
        clean = FLAGGING_SNIPPET.replace(
            "time.time()", "time.time()  # reprolint: disable=REP001"
        )
        path = tmp_path / "wall.py"
        path.write_text(clean)
        report = LintEngine(select=["REP001"]).run([path])
        assert report.findings == []
        assert report.suppressed == 1

    def test_disable_of_other_rule_does_not_suppress(self, tmp_path):
        noisy = FLAGGING_SNIPPET.replace(
            "time.time()", "time.time()  # reprolint: disable=REP005"
        )
        path = tmp_path / "wall.py"
        path.write_text(noisy)
        report = LintEngine(select=["REP001"]).run([path])
        assert [f.rule_id for f in report.findings] == ["REP001"]


class TestContextFingerprints:
    def test_identical_lines_in_different_functions_differ(self, tmp_path):
        path = tmp_path / "wall.py"
        path.write_text(
            "import time\n"
            "\n"
            "\n"
            "def first():\n"
            "    return time.time()\n"
            "\n"
            "\n"
            "def second():\n"
            "    return time.time()\n"
        )
        report = LintEngine(select=["REP001"]).run([path])
        assert len(report.findings) == 2
        fingerprints = {f.fingerprint for f in report.findings}
        assert len(fingerprints) == 2  # context qualname splits them

    def test_fingerprint_survives_line_moves(self, tmp_path):
        path = tmp_path / "wall.py"
        path.write_text(FLAGGING_SNIPPET)
        (finding,) = LintEngine(select=["REP001"]).run([path]).findings
        path.write_text("# a new leading comment\n" + FLAGGING_SNIPPET)
        (moved,) = LintEngine(select=["REP001"]).run([path]).findings
        assert moved.line != finding.line
        assert moved.fingerprint == finding.fingerprint


class TestReporters:
    def _report(self, tmp_path):
        path = tmp_path / "wall.py"
        path.write_text(FLAGGING_SNIPPET)
        return LintEngine(select=["REP001"]).run([path])

    def test_text_reporter_formats_location_and_hint(self, tmp_path):
        report = self._report(tmp_path)
        text = render_text(report)
        assert "wall.py:5:" in text
        assert "REP001" in text
        assert "hint:" in text
        assert "1 finding" in text

    def test_json_reporter_is_machine_readable(self, tmp_path):
        report = self._report(tmp_path)
        payload = json.loads(render_json(report))
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP001"
        assert finding["fingerprint"]


class TestCollection:
    def test_directory_walk_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["mod.py"]

    def test_missing_path_is_an_error(self):
        with pytest.raises(ValidationError):
            list(iter_python_files(["definitely/not/here"]))

    def test_unparseable_file_is_an_engine_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        report = LintEngine().run([path])
        assert report.errors and "broken.py" in report.errors[0]
        assert not report.clean

    def test_unknown_rule_selection_is_rejected(self):
        with pytest.raises(ValidationError):
            LintEngine(select=["REP999"])


class TestModuleContext:
    def test_module_name_resolved_from_package_layout(self):
        ctx = ModuleContext.from_path(
            pathlib.Path("src/repro/core/offers.py").resolve()
        )
        assert ctx.module == "repro.core.offers"
        assert ctx.in_package("repro", "core")
        assert not ctx.in_package("repro", "faults")

    def test_finding_sorting_is_stable(self):
        a = Finding("REP001", "a.py", 3, 0, "m")
        b = Finding("REP001", "a.py", 1, 0, "m")
        assert sorted([a, b], key=Finding.sort_key)[0] is b
