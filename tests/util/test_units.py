"""Units: conversions, Money arithmetic, formatting."""

import math

import pytest

from repro.util.errors import UnitError
from repro.util.units import (
    Money,
    bps,
    bits,
    dollars,
    format_bitrate,
    format_size,
    kbps,
    ms,
    seconds,
)


class TestConversions:
    def test_rate_ladder(self):
        assert kbps(1) == 1_000

    def test_time_ladder(self):
        assert ms(250) == 0.25
        assert seconds(0) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(UnitError):
            bps(bad)
        with pytest.raises(UnitError):
            bits(bad)
        with pytest.raises(UnitError):
            seconds(bad)


class TestMoney:
    def test_of_rounds_to_cents(self):
        assert dollars(1.005).cents in (100, 101)  # banker's vs half-up
        assert dollars(2.5).cents == 250

    def test_of_money_identity(self):
        m = dollars(3)
        assert Money.of(m) is m

    def test_exact_addition(self):
        # The classic float trap: 0.1 + 0.2 — cents stay exact.
        total = dollars(0.1) + dollars(0.2)
        assert total == dollars(0.3)
        assert total.cents == 30

    def test_subtraction_and_negation(self):
        assert (dollars(5) - dollars(2)).cents == 300
        assert (-dollars(1)).cents == -100

    def test_scaling(self):
        assert (dollars(0.05) * 120).cents == 600
        assert (120 * dollars(0.05)).cents == 600

    def test_money_times_money_rejected(self):
        with pytest.raises(UnitError):
            dollars(2) * dollars(3)

    def test_ordering(self):
        assert dollars(4) < dollars(5)
        assert max(dollars(4), dollars(5)) == dollars(5)

    def test_bool(self):
        assert not Money.zero()
        assert dollars(0.01)

    def test_str(self):
        assert str(dollars(6)) == "$6.00"
        assert str(dollars(2.5)) == "$2.50"
        assert str(dollars(-1.25)) == "-$1.25"

    def test_nan_rejected(self):
        with pytest.raises(UnitError):
            dollars(float("nan"))

    def test_amount_roundtrip(self):
        assert dollars(12.34).amount == pytest.approx(12.34)


class TestFormatting:
    def test_format_bitrate(self):
        assert format_bitrate(500) == "500 bps"
        assert format_bitrate(64_000) == "64.00 kbps"
        assert format_bitrate(1_500_000) == "1.50 Mbps"
        assert format_bitrate(2_000_000_000) == "2.00 Gbps"

    def test_format_size(self):
        assert format_size(100) == "100 bit"
        assert format_size(2_000_000) == "2.00 Mbit"
