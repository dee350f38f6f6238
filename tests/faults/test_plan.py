"""Fault plans: specs, windows, CLI parsing."""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec, parse_fault_spec
from repro.util.errors import ValidationError


class TestFaultSpec:
    def test_window(self):
        spec = FaultSpec(FaultKind.SERVER_CRASH, "server-a", start_s=10.0,
                         duration_s=30.0)
        assert spec.end_s == 40.0
        assert not spec.active_at(9.9)
        assert spec.active_at(10.0)
        assert spec.active_at(39.9)
        assert not spec.active_at(40.0)

    def test_open_ended_window(self):
        spec = FaultSpec(FaultKind.LOST_RELEASE, "server-a", start_s=5.0)
        assert spec.end_s is None
        assert not spec.active_at(0.0)
        assert spec.active_at(1e9)

    def test_empty_target_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec(FaultKind.SERVER_CRASH, "")

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec(FaultKind.SERVER_CRASH, "x", start_s=-1.0)

    def test_slow_admission_needs_latency(self):
        with pytest.raises(ValidationError):
            FaultSpec(FaultKind.SLOW_ADMISSION, "x")
        with pytest.raises(ValidationError):
            FaultSpec(FaultKind.SLOW_ADMISSION, "x", value=0.0)

    def test_flap_severity_is_fraction(self):
        with pytest.raises(ValidationError):
            FaultSpec(FaultKind.LINK_FLAP, "L-1", value=1.5)

    def test_probability_is_fraction(self):
        with pytest.raises(ValidationError):
            FaultSpec(FaultKind.TRANSIENT_REFUSAL, "x", probability=2.0)

    def test_describe_mentions_kind_target_window(self):
        text = FaultSpec(
            FaultKind.SERVER_CRASH, "server-a", start_s=2.0, duration_s=20.0
        ).describe()
        assert "server-crash" in text
        assert "server-a" in text
        assert "t=2s..22s" in text


class TestFaultPlan:
    def test_iteration_and_len(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "a"),
             FaultSpec(FaultKind.LINK_FLAP, "L-1")),
            seed=3,
        )
        assert len(plan) == 2
        assert [spec.kind for spec in plan] == [
            FaultKind.SERVER_CRASH, FaultKind.LINK_FLAP
        ]

    def test_for_kind(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "a"),
             FaultSpec(FaultKind.SERVER_CRASH, "b"),
             FaultSpec(FaultKind.LINK_FLAP, "L-1")),
        )
        crashes = plan.for_kind(FaultKind.SERVER_CRASH)
        assert [s.target_id for s in crashes] == ["a", "b"]

    def test_describe_empty(self):
        assert "empty" in FaultPlan().describe()

    def test_describe_lists_every_fault(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "a"),), seed=9
        )
        text = plan.describe()
        assert "seed 9" in text
        assert "server-crash on a" in text


class TestParseFaultSpec:
    def test_crash(self):
        spec = parse_fault_spec("crash:server-a:10:30")
        assert spec.kind is FaultKind.SERVER_CRASH
        assert spec.target_id == "server-a"
        assert spec.start_s == 10.0
        assert spec.duration_s == 30.0

    def test_flap_with_severity(self):
        spec = parse_fault_spec("flap:L-client-1:40:20:0.9")
        assert spec.kind is FaultKind.LINK_FLAP
        assert spec.value == 0.9

    def test_open_ended_duration_dash(self):
        spec = parse_fault_spec("refuse:server-a:0:-:2")
        assert spec.kind is FaultKind.TRANSIENT_REFUSAL
        assert spec.duration_s is None
        assert spec.value == 2.0

    def test_long_aliases(self):
        assert parse_fault_spec(
            "server-crash:a"
        ).kind is FaultKind.SERVER_CRASH
        assert parse_fault_spec(
            "lost-release:a:0:120"
        ).kind is FaultKind.LOST_RELEASE
        assert parse_fault_spec(
            "slow-admission:a:0:60:2.5"
        ).kind is FaultKind.SLOW_ADMISSION

    def test_defaults(self):
        spec = parse_fault_spec("crash:server-a")
        assert spec.start_s == 0.0
        assert spec.duration_s is None
        assert spec.value is None

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            parse_fault_spec("meteor:server-a")

    def test_too_few_fields(self):
        with pytest.raises(ValidationError):
            parse_fault_spec("crash")

    def test_non_numeric_field(self):
        with pytest.raises(ValidationError):
            parse_fault_spec("crash:server-a:soon")
