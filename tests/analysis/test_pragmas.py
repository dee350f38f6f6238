"""Pragma edge cases: first line, multi-line statements, decorators."""

import pathlib

from repro.analysis import LintEngine, ModuleContext

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestSuppressionExtents:
    def test_pragma_on_the_first_line_of_the_file(self):
        ctx = ModuleContext.from_source(
            "WIDTH = 1920  # reprolint: disable=REP007\n"
        )
        assert ctx.suppressed("REP007", 1)

    def test_multiline_statement_is_covered_from_its_opening_line(self):
        ctx = ModuleContext.from_source(
            "import time\n"
            "\n"
            "record.update(  # reprolint: disable=REP001\n"
            "    stamped_at=time.time(),\n"
            ")\n"
        )
        assert ctx.suppressed("REP001", 4)

    def test_multiline_statement_is_covered_from_an_inner_line(self):
        ctx = ModuleContext.from_source(
            "import time\n"
            "\n"
            "record.update(\n"
            "    stamped_at=time.time(),  # reprolint: disable=REP001\n"
            ")\n"
        )
        assert ctx.suppressed("REP001", 3)

    def test_decorator_pragma_covers_the_def_line(self):
        ctx = ModuleContext.from_source(
            "@decorate  # reprolint: disable=REP005\n"
            "def collect(a, seen=[]):\n"
            "    return a\n"
        )
        assert ctx.suppressed("REP005", 2)

    def test_def_line_pragma_covers_the_decorator_line(self):
        ctx = ModuleContext.from_source(
            "@decorate\n"
            "def collect(a, seen=[]):  # reprolint: disable=REP005\n"
            "    return a\n"
        )
        assert ctx.suppressed("REP005", 1)

    def test_header_pragma_never_covers_the_body(self):
        ctx = ModuleContext.from_source(
            "@decorate  # reprolint: disable=REP001\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert not ctx.suppressed("REP001", 3)

    def test_bare_disable_hits_every_rule(self):
        ctx = ModuleContext.from_source("x = 1  # reprolint: disable\n")
        assert ctx.suppressed("REP001", 1)
        assert ctx.suppressed("REP007", 1)


class TestPragmaFixtures:
    def test_edge_case_pass_fixture_is_fully_suppressed(self):
        report = LintEngine().run(
            [FIXTURES / "passing" / "pragma_edges_pass.py"]
        )
        assert report.findings == []
        assert report.suppressed == 2

    def test_decorated_pass_fixture_is_suppressed_in_the_typed_core(self):
        report = LintEngine().run(
            [FIXTURES / "passing" / "repro" / "core" / "pragma_decorated_pass.py"]
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_edge_case_flag_fixture_still_flags_the_body(self):
        report = LintEngine(select=["REP001"]).run(
            [FIXTURES / "flagging" / "pragma_edges_flag.py"]
        )
        assert [f.rule_id for f in report.findings] == ["REP001"]
        assert report.suppressed == 0
