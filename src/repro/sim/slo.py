"""The ``repro slo`` / ``repro profile`` run driver.

Replays one load cell of the 3-server reference deployment with the
full observability stack armed — flight recorder sampling the registry,
span collection for the critical-path profiler — then grades the run
against the shipped SLO set (:func:`repro.telemetry.slo.default_slos`).
Two scenarios:

* ``nominal`` — the seeded load cell as-is; it must pass every SLO
  (the CI gate's green path);
* ``brownout`` — the same cell with a mid-run ``SERVER_BROWNOUT``
  window across every server; capacity loss drives the burn rate
  through the page threshold, and ``repro slo`` exits nonzero.

Everything is a pure function of the seeds, so the time-series JSONL,
the SLO report and the flamegraph are byte-identical across same-seed
invocations — CI diffs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..telemetry.profiler import (
    CriticalPath,
    ProfileReport,
    extract_critical_paths,
    profile_spans,
)
from ..telemetry.slo import SloReport, SloSpec, evaluate_slos
from ..telemetry.timeseries import FlightRecorder
from ..util.errors import SimulationError
from ..util.validation import check_fraction, check_positive
from .load import ArrivalSpec, CellRun, LoadSpec, run_load_cell_instrumented
from .scenario import brownout_faults

__all__ = [
    "SLO_SCENARIOS",
    "SloRunSpec",
    "SloRunReport",
    "run_slo",
]

SLO_SCENARIOS = ("nominal", "brownout")


@dataclass(frozen=True, slots=True)
class SloRunSpec:
    """One reproducible SLO-gate run."""

    scenario: str = "nominal"
    multiplier: float = 1.0
    rate_per_s: float = 1.0
    horizon_s: float = 120.0
    seed: int = 1
    scheduler_seed: int = 0
    telemetry_seed: int = 7
    interval_s: float = 1.0
    severity: float = 0.85
    brownout_start_s: float = 30.0
    brownout_duration_s: float = 60.0

    def __post_init__(self) -> None:
        if self.scenario not in SLO_SCENARIOS:
            raise SimulationError(
                f"scenario must be one of {SLO_SCENARIOS}, "
                f"got {self.scenario!r}"
            )
        check_positive(self.multiplier, "multiplier")
        check_positive(self.interval_s, "interval_s")
        check_fraction(self.severity, "severity")
        if self.scenario == "brownout" and self.severity == 0.0:
            raise SimulationError("severity 0 is not a brownout")

    def load_spec(self) -> LoadSpec:
        spec = LoadSpec(
            arrival=ArrivalSpec(
                kind="poisson",
                rate_per_s=self.rate_per_s,
                horizon_s=self.horizon_s,
            ),
            seed=self.seed,
            scheduler_seed=self.scheduler_seed,
            telemetry_seed=self.telemetry_seed,
            multipliers=(self.multiplier,),
        )
        if self.scenario != "brownout":
            return spec
        return replace(spec, faults=brownout_faults(
            spec.servers,
            start_s=self.brownout_start_s,
            duration_s=self.brownout_duration_s,
            severity=self.severity,
        ))


@dataclass(slots=True)
class SloRunReport:
    """One graded run: the cell, its scorecard, its critical path."""

    spec: SloRunSpec
    run: CellRun
    slo: SloReport
    profile: ProfileReport
    paths: "list[CriticalPath]" = field(default_factory=list)

    @property
    def recorder(self) -> "FlightRecorder | None":
        return self.run.recorder

    @property
    def breached(self) -> bool:
        return self.slo.breached

    def as_dict(self) -> "dict[str, object]":
        return {
            "schema": "repro.slo-run/v1",
            "scenario": self.spec.scenario,
            "multiplier": self.spec.multiplier,
            "seed": self.spec.seed,
            "scheduler_seed": self.spec.scheduler_seed,
            "telemetry_seed": self.spec.telemetry_seed,
            "cell": self.run.report.as_dict(),
            "slo": self.slo.as_dict(),
            "profile": self.profile.as_dict(),
            "breached": self.breached,
        }


def run_slo(
    spec: SloRunSpec,
    *,
    slos: "tuple[SloSpec, ...] | None" = None,
) -> SloRunReport:
    """Replay the scenario's load cell and grade it."""
    run = run_load_cell_instrumented(
        spec.load_spec(),
        spec.multiplier,
        interval_s=spec.interval_s,
        collect_spans=True,
    )
    if run.recorder is None:
        raise SimulationError(
            "SLO runs need telemetry; set telemetry_seed"
        )
    report = evaluate_slos(run.recorder, slos)
    paths = extract_critical_paths(run.spans)
    return SloRunReport(
        spec=spec,
        run=run,
        slo=report,
        profile=profile_spans(run.spans),
        paths=paths,
    )
