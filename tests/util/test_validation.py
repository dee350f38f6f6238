"""Validation helpers."""

import pytest

from repro.util.errors import ValidationError
from repro.util.validation import (
    check_fraction,
    check_name,
    check_non_empty,
    check_non_negative,
    check_positive,
    check_range,
)


class TestCheckRange:
    def test_inclusive_bounds(self):
        assert check_range(1, 1, 60, "x") == 1
        assert check_range(60, 1, 60, "x") == 60

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_range(61, 1, 60, "x")

    def test_integer_mode(self):
        assert check_range(25, 1, 60, "x", integer=True) == 25
        with pytest.raises(ValidationError):
            check_range(25.5, 1, 60, "x", integer=True)

    def test_integer_mode_returns_int(self):
        assert isinstance(check_range(25.0, 1, 60, "x", integer=True), int)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            check_range(float("nan"), 0, 1, "x")


class TestSignChecks:
    def test_positive(self):
        assert check_positive(0.5, "x") == 0.5
        with pytest.raises(ValidationError):
            check_positive(0, "x")

    def test_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")

    def test_fraction(self):
        assert check_fraction(0.5, "x") == 0.5
        with pytest.raises(ValidationError):
            check_fraction(1.1, "x")


class TestNameAndChoice:
    def test_name_ok(self):
        assert check_name("server-a", "x") == "server-a"

    @pytest.mark.parametrize("bad", ["", "  ", None, 42, "a\nb"])
    def test_name_bad(self, bad):
        with pytest.raises(ValidationError):
            check_name(bad, "x")

    def test_non_empty(self):
        assert check_non_empty([1], "x") == [1]
        with pytest.raises(ValidationError):
            check_non_empty([], "x")
