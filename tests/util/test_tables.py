"""ASCII table / box rendering."""

import pytest

from repro.util.tables import render_box, render_table


class TestRenderTable:
    def test_basic_shape(self):
        out = render_table(("a", "bb"), [(1, "x"), (22, "yy")])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        assert "| a" in lines[1] or "|  a" in lines[1]
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_title(self):
        out = render_table(("h",), [("v",)], title="T")
        assert out.splitlines()[0] == "T"

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(("a", "b"), [(1,)])

    def test_numeric_right_alignment(self):
        out = render_table(("n",), [(5,), (1234,)])
        rows = [l for l in out.splitlines() if l.startswith("|")][1:]
        assert rows[0].index("5") > rows[1].index("1")

    def test_float_trimming(self):
        out = render_table(("x",), [(1.5000,)])
        assert "1.5 " in out

    def test_empty_rows(self):
        out = render_table(("only", "headers"), [])
        assert "only" in out and "headers" in out


class TestRenderBox:
    def test_contains_lines_and_title(self):
        out = render_box(["hello", "world"], title="W")
        assert " W " in out.splitlines()[0]
        assert "| hello" in out

    def test_rectangular(self):
        out = render_box(["a", "longer line"], title="T")
        assert len({len(line) for line in out.splitlines()}) == 1

    def test_min_width(self):
        out = render_box(["x"], width=30)
        assert len(out.splitlines()[0]) >= 30
