"""Command-line interface.

Subcommands exercising the library from a shell:

* ``demo`` — negotiate one article end to end on a built-in deployment,
  printing the GUI windows along the way;
* ``windows`` — render the §8 GUI windows for a stock profile;
* ``sweep`` — run a seeded workload through a chosen negotiator and
  print the outcome statistics;
* ``chaos`` — run negotiation + playout under a seeded fault plan
  (server crashes, link flaps, transient refusals, lost releases,
  manager crashes) and report blocking/recovery metrics;
* ``recover`` — kill the QoS manager at a chosen crash opportunity,
  then replay the write-ahead reservation journal and report the
  reconciliation (zero leaked capacity, preserved sessions);
* ``trace`` — run one fully traced negotiation and print the span tree
  plus the per-step offer accounting (drop counts and reasons);
* ``stats`` — run a telemetry-instrumented chaos or workload run and
  print the metrics snapshot plus the journal reconciliation audit;
* ``storm`` — brown out a server at peak load over hundreds of
  concurrent playouts and report how the admission gate and the storm
  controller absorbed the renegotiation storm (``--json`` emits the
  backpressure-on/off comparison);
* ``load`` — sweep the concurrent negotiation service over a seeded
  arrival process (Poisson/diurnal/flash crowd) at rising load
  multipliers and print the saturation curve; exits nonzero unless the
  service degrades gracefully at 2× saturation (honest hints, no
  starvation, zero leaks);
* ``slo`` — replay a seeded load cell with the flight recorder armed
  and grade it against the shipped SLO set (burn-rate alerts, error
  budgets); the ``brownout`` scenario must breach and exit nonzero;
* ``profile`` — extract the per-negotiation critical path from the
  span tree at rising load multipliers, name the top bottleneck, and
  optionally write a folded-stack flamegraph;
* ``experiments`` — list the E-series experiment index;
* ``lint`` — run the reprolint project-invariant checks (the per-file
  rules and the whole-program resource-flow rules, in one pass over
  the given paths), exiting nonzero on findings;
* ``typecheck`` — run the strict mypy gate over the typed core
  (skipped gracefully when mypy is not installed).

Invoke as ``python -m repro <subcommand>``.  A run the library rejects
(unknown profile, unknown fault target, a spec out of range) prints
``bad <subcommand> run: …`` on stderr and exits 2 with nothing on
stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import Sequence

__all__ = ["main", "build_parser", "build_spec"]

EXPERIMENT_INDEX = [
    ("E1", "Sec 5.2.1 static negotiation status", "benchmarks/test_e01_sns_example.py"),
    ("E2", "Sec 5.2.2 setting 1: OIF + order", "benchmarks/test_e02_oif_setting1.py"),
    ("E3", "Sec 5.2.2 setting 2: cost importance 0", "benchmarks/test_e03_oif_setting2.py"),
    ("E4", "Sec 5.2.2 setting 3: QoS importance 0", "benchmarks/test_e04_oif_setting3.py"),
    ("E5", "Sec 6 QoS mapping formulas", "benchmarks/test_e05_qos_mapping.py"),
    ("E6", "Sec 7 Eq.1 cost decomposition", "benchmarks/test_e06_cost_model.py"),
    ("E7", "blocking vs load, smart vs baselines", "benchmarks/test_e07_blocking_vs_load.py"),
    ("E8", "status mix vs variant richness", "benchmarks/test_e08_status_distribution.py"),
    ("E9", "adaptation vs none under congestion", "benchmarks/test_e09_adaptation.py"),
    ("E10", "classification scalability", "benchmarks/test_e10_scalability.py"),
    ("E11", "cost limits greediness", "benchmarks/test_e11_cost_greediness.py"),
    ("E12", "choicePeriod timer + renegotiation", "benchmarks/test_e12_confirmation_renegotiation.py"),
    ("E13", "Figures 1-7 regenerated", "benchmarks/test_e13_figures.py"),
    ("E14", "ablation: SCAN vs FCFS", "benchmarks/test_e14_scan_vs_fcfs.py"),
    ("E15", "ablation: admission control", "benchmarks/test_e15_admission_ablation.py"),
    ("E16", "ablation: policy vs satisfaction", "benchmarks/test_e16_policy_satisfaction.py"),
    ("E17", "extension: future reservations", "benchmarks/test_e17_future_reservations.py"),
    ("E18", "extension: multi-domain hierarchy", "benchmarks/test_e18_multidomain.py"),
    ("E19", "data-path stalls vs admission", "benchmarks/test_e19_datapath_stalls.py"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPDC-5 '96 QoS negotiation procedure, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_argument(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--telemetry", dest="telemetry_jsonl", default=None,
            metavar="PATH",
            help="write the run's trace spans to PATH as JSONL",
        )

    demo = sub.add_parser("demo", help="negotiate one article end to end")
    demo.add_argument("--profile", default="balanced",
                      help="stock profile name (default: balanced)")
    demo.add_argument("--documents", type=int, dest="document_count",
                      default=3,
                      help="catalogue size of the built-in deployment")
    add_telemetry_argument(demo)

    windows = sub.add_parser("windows", help="render the Sec 8 GUI windows")
    windows.add_argument("--profile", default="balanced")

    sweep = sub.add_parser("sweep", help="run a seeded workload")
    sweep.add_argument("--negotiator", default="smart",
                       choices=["smart", "static", "first-fit", "cost-only",
                                "qos-only"])
    sweep.add_argument("--rate", type=float, dest="arrival_rate_per_s",
                       default=0.1, help="arrival rate, requests/s")
    sweep.add_argument("--horizon", type=float, dest="horizon_s",
                       default=900.0, help="workload horizon, seconds")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--servers", type=int, dest="server_count", default=2)
    sweep.add_argument("--no-adaptation", action="store_false",
                       dest="adaptation_enabled")
    add_telemetry_argument(sweep)

    chaos = sub.add_parser(
        "chaos", help="run negotiation + playout under a fault plan"
    )
    chaos.add_argument(
        "--fault", action="append", default=[], dest="faults",
        metavar="KIND:TARGET:START:DUR[:VALUE]",
        help="injectable fault, e.g. crash:server-a:10:30, "
             "flap:L-client-1:40:20:0.9, slow:server-b:0:60:2.5, "
             "refuse:server-a:0:-:2, lost-release:server-a:0:120, "
             "crash-manager:manager:0:-:4 (die at the 4th crash "
             "opportunity); repeatable (default: a demo crash + link flap)",
    )
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--requests", type=int, default=4)
    chaos.add_argument("--servers", type=int, dest="server_count", default=3)
    chaos.add_argument("--spacing", type=float, dest="request_spacing_s",
                       default=5.0, help="request inter-arrival time, seconds")
    chaos.add_argument("--profile", dest="profile_name", default="balanced")
    chaos.add_argument("--lease-ttl", type=float, dest="lease_ttl_s",
                       default=120.0)
    chaos.add_argument("--max-attempts", type=int, default=3,
                       help="retry attempts per reservation call")
    add_telemetry_argument(chaos)

    recover = sub.add_parser(
        "recover",
        help="crash the QoS manager mid-negotiation, replay the journal",
    )
    recover.add_argument("--seed", type=int, default=1)
    recover.add_argument("--requests", type=int, default=3)
    recover.add_argument("--servers", type=int, dest="server_count",
                         default=3)
    recover.add_argument("--spacing", type=float, dest="request_spacing_s",
                         default=5.0,
                         help="request inter-arrival time, seconds")
    recover.add_argument("--profile", dest="profile_name", default="balanced")
    recover.add_argument(
        "--crash-after", type=int, dest="crash_opportunity", default=4,
        metavar="K",
        help="die at the K-th crash opportunity (journal append or "
             "admission call; default 4)",
    )
    recover.add_argument(
        "--journal", default=None, metavar="PATH", dest="journal_path",
        help="file-backed journal path (default: in-memory); the restart "
             "reopens it from disk through the torn-tail reader",
    )
    recover.add_argument("--journal-describe", action="store_true",
                         help="print the journal's record timeline")
    add_telemetry_argument(recover)

    trace = sub.add_parser(
        "trace",
        help="run one fully traced negotiation and print the span tree",
    )
    trace.add_argument("--seed", type=int, default=7,
                       help="telemetry seed (trace/span ids; default 7)")
    trace.add_argument("--profile", default="balanced")
    trace.add_argument("--documents", type=int, dest="document_count",
                       default=3)
    trace.add_argument("--document", default=None,
                       help="document id (default: the first in the catalogue)")
    trace.add_argument("--json", action="store_true",
                       help="print the negotiation report as JSON")
    add_telemetry_argument(trace)

    stats = sub.add_parser(
        "stats",
        help="run an instrumented chaos or workload run, print metrics",
    )
    stats.add_argument("--mode", default="chaos",
                       choices=["chaos", "workload"])
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument("--requests", type=int, default=4,
                       help="chaos-mode request count")
    stats.add_argument("--servers", type=int, dest="server_count", default=3)
    stats.add_argument("--rate", type=float, dest="arrival_rate_per_s",
                       default=0.1,
                       help="workload-mode arrival rate, requests/s")
    stats.add_argument("--horizon", type=float, dest="horizon_s",
                       default=300.0, help="workload-mode horizon, seconds")
    stats.add_argument("--profile", dest="profile_name", default="balanced")
    stats.add_argument("--json", action="store_true",
                       help="emit one canonical JSON document")
    add_telemetry_argument(stats)

    storm = sub.add_parser(
        "storm",
        help="brown out a server at peak load, survive the "
             "renegotiation storm",
    )
    storm.add_argument("--sessions", type=int, default=200,
                       help="concurrent playout requests (default 200)")
    storm.add_argument("--late-requests", type=int, default=40,
                       help="arrivals during the brownout itself")
    storm.add_argument("--severity", type=float, default=0.4,
                       help="fraction of capacity lost (default 0.4)")
    storm.add_argument("--brownout-start", type=float, default=90.0,
                       dest="brownout_start_s", metavar="S",
                       help="brownout onset, seconds")
    storm.add_argument("--brownout-duration", type=float, default=90.0,
                       dest="brownout_duration_s", metavar="S",
                       help="brownout length, seconds")
    storm.add_argument("--servers", type=int, default=3)
    storm.add_argument("--seed", type=int, default=1)
    storm.add_argument("--profile", dest="profile_name", default="balanced")
    storm.add_argument(
        "--no-backpressure", action="store_false", dest="backpressure",
        help="run the bare deployment only (the thundering-herd "
             "baseline)",
    )
    storm.add_argument(
        "--compare", action="store_true",
        help="run backpressure on AND off from the same seed, print "
             "the comparison",
    )
    storm.add_argument(
        "--json", action="store_true",
        help="emit the backpressure-on/off comparison as JSON "
             "(implies --compare)",
    )
    add_telemetry_argument(storm)

    load = sub.add_parser(
        "load",
        help="sweep the concurrent negotiation service to saturation "
             "and audit the overload behaviour",
    )
    load.add_argument(
        "--arrivals", default="poisson", dest="kind",
        choices=("poisson", "diurnal", "flash"),
        help="arrival process (default poisson)",
    )
    load.add_argument("--rate", type=float, dest="rate_per_s", default=1.0,
                      metavar="R", help="base arrival rate, negotiations/s "
                                        "(default 1.0)")
    load.add_argument("--horizon", type=float, dest="horizon_s",
                      default=120.0, metavar="S",
                      help="arrival window, seconds (default 120)")
    load.add_argument(
        "--multipliers", default="0.5,1,2,4,8", metavar="M,M,...",
        help="comma-separated offered-load multipliers swept over the "
             "base rate (default 0.5,1,2,4,8)",
    )
    load.add_argument("--servers", type=int, default=3)
    load.add_argument("--clients", type=int, default=12)
    load.add_argument("--seed", type=int, default=1,
                      help="arrivals + user behaviour seed")
    load.add_argument("--scheduler-seed", type=int, default=0,
                      help="cooperative-scheduler interleaving seed")
    load.add_argument("--profile", dest="profile_name", default="balanced")
    load.add_argument(
        "--no-gate", action="store_false", dest="use_gate",
        help="bypass the admission gate (every arrival starts a "
             "negotiation task immediately)",
    )
    load.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON on stdout",
    )
    load.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report to PATH",
    )

    slo = sub.add_parser(
        "slo",
        help="replay a seeded load cell with the flight recorder armed "
             "and grade it against the shipped SLO set; exits nonzero "
             "when a burn-rate alert pages or an error budget is spent",
    )
    slo.add_argument(
        "--scenario", default="nominal",
        choices=("nominal", "brownout"),
        help="nominal = the green path (must pass); brownout = a "
             "mid-run capacity loss across every server (must breach)",
    )
    slo.add_argument("--multiplier", type=float, default=1.0,
                     help="offered-load multiplier (default 1.0)")
    slo.add_argument("--rate", type=float, dest="rate_per_s", default=1.0,
                     metavar="R", help="base arrival rate, negotiations/s")
    slo.add_argument("--horizon", type=float, dest="horizon_s",
                     default=120.0, metavar="S",
                     help="arrival window, seconds (default 120)")
    slo.add_argument("--seed", type=int, default=1,
                     help="arrivals + user behaviour seed")
    slo.add_argument("--scheduler-seed", type=int, default=0,
                     help="cooperative-scheduler interleaving seed")
    slo.add_argument("--telemetry-seed", type=int, default=7,
                     help="trace/span id seed (default 7)")
    slo.add_argument("--interval", type=float, dest="interval_s",
                     default=1.0, metavar="S",
                     help="flight-recorder scrape interval, simulated "
                          "seconds (default 1)")
    slo.add_argument("--severity", type=float, default=0.85,
                     help="brownout capacity loss fraction (default 0.85)")
    slo.add_argument("--brownout-start", type=float, default=30.0,
                     dest="brownout_start_s", metavar="S",
                     help="brownout onset, seconds")
    slo.add_argument("--brownout-duration", type=float, default=60.0,
                     dest="brownout_duration_s", metavar="S",
                     help="brownout length, seconds")
    slo.add_argument("--timeseries", default=None, metavar="PATH",
                     help="write the flight-recorder time series to "
                          "PATH as canonical JSONL")
    slo.add_argument("--flamegraph", default=None, metavar="PATH",
                     help="write the critical-path folded stacks to "
                          "PATH (flamegraph.pl/speedscope format)")
    slo.add_argument("--report", default=None, metavar="PATH",
                     help="write the full graded run as JSON to PATH")
    slo.add_argument("--json", action="store_true",
                     help="emit the graded run as JSON on stdout")

    profile = sub.add_parser(
        "profile",
        help="profile the negotiation critical path per load "
             "multiplier and name the top bottleneck",
    )
    profile.add_argument(
        "--multipliers", default="0.5,1,2,4", metavar="M,M,...",
        help="comma-separated offered-load multipliers "
             "(default 0.5,1,2,4)",
    )
    profile.add_argument("--rate", type=float, dest="rate_per_s",
                         default=1.0, metavar="R",
                         help="base arrival rate, negotiations/s")
    profile.add_argument("--horizon", type=float, default=120.0,
                         dest="horizon_s", metavar="S",
                         help="arrival window, seconds (default 120)")
    profile.add_argument("--seed", type=int, default=1,
                         help="arrivals + user behaviour seed")
    profile.add_argument("--scheduler-seed", type=int, default=0,
                         help="cooperative-scheduler interleaving seed")
    profile.add_argument("--telemetry-seed", type=int, default=7,
                         help="trace/span id seed (default 7)")
    profile.add_argument("--flamegraph", default=None, metavar="PATH",
                         help="write the folded stacks of every "
                              "multiplier (section-prefixed) to PATH")
    profile.add_argument("--json", action="store_true",
                         help="emit the per-multiplier profiles as JSON")

    sub.add_parser("experiments", help="list the experiment index")

    from .analysis.cli import add_lint_arguments, add_typecheck_arguments

    lint = sub.add_parser(
        "lint", help="run the reprolint project-invariant checks"
    )
    add_lint_arguments(lint)

    typecheck = sub.add_parser(
        "typecheck", help="run the strict mypy gate over the typed core"
    )
    add_typecheck_arguments(typecheck)

    report = sub.add_parser(
        "report", help="concatenate the regenerated experiment tables"
    )
    report.add_argument(
        "--out-dir", default="benchmarks/out",
        help="directory the benchmark suite wrote its tables to",
    )
    return parser


class _UsageError(Exception):
    """A flag value the CLI itself rejects; the message is complete."""


def _dump(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2)


def _emit(args, document, render, path=None) -> None:
    """A command's output: ``document`` as JSON under ``--json``, else
    the text ``render()`` returns.  With a ``path`` the JSON is also
    written there, before ``render`` runs."""
    payload = _dump(document) if args.json or path is not None else None
    if path is not None:
        pathlib.Path(path).write_text(payload + "\n", encoding="utf-8")
    print(payload if args.json else render())


def _verdict(ok: bool, warning: str) -> int:
    """Exit 0 on a passing run; else warn on stderr and exit 1."""
    if ok:
        return 0
    print(f"\nWARNING: {warning}", file=sys.stderr)
    return 1


def _telemetry_seed(args, seed: int) -> "int | None":
    """Observability is on exactly when ``--telemetry PATH`` is."""
    return seed if args.telemetry_jsonl is not None else None


def _trace_note(artifacts, path) -> None:
    if artifacts.exporter is not None:
        print(f"\n[trace: {artifacts.exporter.exported} spans -> {path}]")


def _multipliers(text: str) -> "tuple[float, ...]":
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise _UsageError(
            f"bad --multipliers {text!r}: expected comma-separated numbers"
        ) from None


# Demonstration plan: crash the first server during the early
# commitments, flap the first client's access link mid-playout.
DEMO_FAULTS = ("crash:server-a:2:20", "flap:L-client-1:30:15")


def _fault_plan(texts, seed: int):
    from .faults import FaultPlan, parse_fault_spec
    from .util.errors import ValidationError

    try:
        faults = tuple(parse_fault_spec(text) for text in texts or DEMO_FAULTS)
    except ValidationError as error:
        raise _UsageError(f"bad fault spec: {error}") from None
    return FaultPlan(faults, seed=seed)


def _fill(cls, args, **derived):
    """``cls`` built from the flags: a field is fed by the flag whose
    ``dest`` is its name, a nested spec is filled the same way, and
    ``derived`` carries what no single flag holds.  Anything else keeps
    the spec's default."""
    flags = vars(args)
    values = dict(derived)
    for field in dataclasses.fields(cls):
        if not field.init or field.name in values:
            continue
        if field.name in flags:
            values[field.name] = flags[field.name]
        elif dataclasses.is_dataclass(field.default_factory):
            values[field.name] = _fill(field.default_factory, args)
    return cls(**values)


def build_spec(args):
    """The run spec of a parsed ``chaos``, ``stats``, ``recover``,
    ``storm``, ``load``, ``profile`` or ``slo`` command line."""
    from .sim import (
        ChaosSpec,
        CrashRecoverySpec,
        LoadSpec,
        SloRunSpec,
        StormSpec,
    )

    def traced():
        return _telemetry_seed(args, args.seed)

    def multipliers():
        return _multipliers(args.multipliers)

    # command -> (its spec, the fields that no single flag carries)
    spec, derived = {
        "chaos": (ChaosSpec, {
            "plan": lambda: _fault_plan(args.faults, args.seed),
            "telemetry_seed": traced,
        }),
        "stats": (ChaosSpec, {
            "plan": lambda: _fault_plan((), args.seed),
            "telemetry_seed": lambda: args.seed,
        }),
        "recover": (CrashRecoverySpec, {"telemetry_seed": traced}),
        "storm": (StormSpec, {"telemetry_seed": traced}),
        "load": (LoadSpec, {"multipliers": multipliers}),
        "profile": (LoadSpec, {"multipliers": multipliers}),
        "slo": (SloRunSpec, {}),
    }[args.command]
    return _fill(
        spec, args, **{name: value() for name, value in derived.items()}
    )


def _run_workload(args, negotiator, *, telemetry_seed, config=None):
    """Run the seeded ``--rate``/``--horizon`` workload through
    ``negotiator`` on a fresh ``--servers`` deployment."""
    from .sim import (
        ScenarioSpec,
        WorkloadSpec,
        build_scenario,
        generate_requests,
        run_workload,
    )
    from .sim.run import Artifacts

    scenario = build_scenario(
        _fill(ScenarioSpec, args), telemetry_seed=telemetry_seed
    )
    artifacts = Artifacts(scenario, trace_jsonl=args.telemetry_jsonl)
    requests = generate_requests(
        _fill(WorkloadSpec, args),
        scenario.document_ids(),
        list(scenario.clients),
        rng=args.seed,
    )
    try:
        stats = run_workload(
            scenario, negotiator(scenario.manager), requests, config=config
        )
    finally:
        artifacts.finish()
    return scenario, artifacts, requests, stats


def _cmd_demo(args) -> int:
    from .core import ProfileManager
    from .sim import ScenarioSpec, build_scenario
    from .sim.run import Artifacts, stock_profile
    from .ui import information_window, main_window

    profile = stock_profile(args.profile)
    scenario = build_scenario(
        _fill(ScenarioSpec, args), telemetry_seed=_telemetry_seed(args, 0)
    )
    artifacts = Artifacts(scenario, trace_jsonl=args.telemetry_jsonl)
    client = scenario.any_client()
    print(main_window(ProfileManager()))
    try:
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], profile, client
        )
        print()
        print(information_window(result))
        if result.commitment is not None:
            result.commitment.confirm(scenario.clock.now())
            runtime = scenario.runtime()
            session = runtime.start_session(
                result, profile, client, confirm=False
            )
            scenario.loop.run()
            print(f"\nsession {session.session_id}: {session.state.value} "
                  f"(offer {result.chosen.offer.offer_id}, "
                  f"cost {result.chosen.offer.cost})")
    finally:
        artifacts.finish()
    _trace_note(artifacts, args.telemetry_jsonl)
    return 0


def _cmd_windows(args) -> int:
    from .core import ProfileManager
    from .sim.run import stock_profile
    from .ui import (
        audio_profile_window,
        cost_profile_window,
        main_window,
        profile_component_window,
        video_profile_window,
    )

    profile = stock_profile(args.profile)
    for window in (
        main_window(ProfileManager()),
        profile_component_window(profile),
        video_profile_window(profile),
        audio_profile_window(profile),
        cost_profile_window(profile),
    ):
        print(window)
        print()
    return 0


def _cmd_sweep(args) -> int:
    from .sim import (
        CostOnlyNegotiator,
        FirstFitNegotiator,
        QoSOnlyNegotiator,
        RunConfig,
        SmartNegotiator,
        StaticNegotiator,
    )
    from .sim.metrics import RunStats
    from .util.tables import render_table

    by_name = {
        "smart": SmartNegotiator,
        "static": StaticNegotiator,
        "first-fit": FirstFitNegotiator,
        "cost-only": CostOnlyNegotiator,
        "qos-only": QoSOnlyNegotiator,
    }
    _scenario, artifacts, requests, stats = _run_workload(
        args,
        by_name[args.negotiator],
        telemetry_seed=_telemetry_seed(args, args.seed),
        config=_fill(RunConfig, args),
    )
    print(
        render_table(
            RunStats.summary_headers(),
            [stats.summary_row(args.negotiator)],
            title=f"{len(requests)} requests, seed {args.seed}",
        )
    )
    print()
    for status, count in sorted(
        stats.statuses.as_dict().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {status:<22} {count}")
    _trace_note(artifacts, args.telemetry_jsonl)
    return 0


def _cmd_chaos(args) -> int:
    from .sim import run_chaos

    spec = build_spec(args)
    report, _scenario = run_chaos(spec)
    print(spec.plan.describe())
    print()
    print(report.render())
    return _verdict(
        report.clean_teardown, "reservations leaked at teardown"
    )


def _cmd_recover(args) -> int:
    from .sim import run_crash_recovery

    report, _scenario = run_crash_recovery(build_spec(args))
    print(report.render())
    if args.journal_describe:
        print()
        print(report.journal_timeline)
    if not report.crashed:
        print("\nNOTE: the crash opportunity was never reached; try a "
              "smaller --crash-after", file=sys.stderr)
    return _verdict(
        report.recovery is None or report.recovery.leak_free,
        "capacity leaked through recovery",
    )


def _cmd_trace(args) -> int:
    from .sim import ScenarioSpec, build_scenario
    from .sim.run import Artifacts, stock_profile
    from .telemetry import (
        InMemorySpanExporter,
        NegotiationReport,
        render_span_tree,
    )
    from .util.errors import ConfirmationTimeout

    profile = stock_profile(args.profile)
    scenario = build_scenario(
        _fill(ScenarioSpec, args), telemetry_seed=args.seed
    )
    memory = InMemorySpanExporter()
    scenario.telemetry.tracer.add_exporter(memory)
    artifacts = Artifacts(scenario, trace_jsonl=args.telemetry_jsonl)
    try:
        result = scenario.manager.negotiate(
            args.document or scenario.document_ids()[0],
            profile,
            scenario.any_client(),
        )
        if result.commitment is not None:
            try:
                result.commitment.confirm(scenario.clock.now())
            except ConfirmationTimeout:
                pass
            result.commitment.release()
    finally:
        artifacts.finish()
    # Rebuild the report from the exported spans so the post-negotiation
    # step-6 confirmation span is included.
    report = NegotiationReport.from_spans(memory.spans)
    if args.json:
        print(_dump(report.as_dict()))
        return 0
    print(render_span_tree(memory.spans))
    print()
    print(report.render())
    _trace_note(artifacts, args.telemetry_jsonl)
    return 0


def _cmd_stats(args) -> int:
    from .telemetry import reconcile_journal

    if args.mode == "chaos":
        from .sim import run_chaos

        report, scenario = run_chaos(build_spec(args))
        extra = {
            "clean_teardown": report.clean_teardown,
            "negotiations": report.negotiations,
            "breaker_opens": report.breaker_opens,
            "retries": report.retries,
            "manager_crashes": report.manager_crashes,
        }
    else:
        from .sim import SmartNegotiator
        from .sim.run import RunReport, stock_profile

        # The generated workload brings its own profiles; the flag is
        # still checked, as in chaos mode.
        stock_profile(args.profile_name)
        scenario, _artifacts, requests, _stats = _run_workload(
            args, SmartNegotiator, telemetry_seed=args.seed
        )
        report = RunReport()
        report.audit(scenario)
        extra = {
            "clean_teardown": report.clean_teardown,
            "requests": len(requests),
        }

    telemetry = scenario.telemetry
    journal = scenario.manager.committer.journal
    reconciliation = (
        reconcile_journal(journal, telemetry.metrics)
        if journal is not None
        else None
    )
    balanced = reconciliation is None or reconciliation["balanced"]

    def render() -> str:
        lines = [telemetry.metrics.render()]
        if reconciliation is not None:
            lines += ["", "journal reconciliation:"]
            lines += [
                f"  {key}: {value}"
                for key, value in sorted(reconciliation.items())
            ]
        lines.append("")
        lines += [f"  {key}: {value}" for key, value in sorted(extra.items())]
        return "\n".join(lines)

    _emit(args, {
        "mode": args.mode,
        "seed": args.seed,
        "run": extra,
        "metrics": telemetry.metrics.snapshot(),
        "reconciliation": reconciliation,
    }, render)
    return _verdict(
        report.clean_teardown and balanced,
        "run leaked reservations or the journal does not reconcile",
    )


def _cmd_storm(args) -> int:
    from .sim import run_storm, run_storm_comparison

    compare = args.compare or args.json
    if compare and not args.backpressure:
        raise _UsageError(
            "--no-backpressure cannot be combined with --compare/--json"
        )
    spec = build_spec(args)
    if compare:
        comparison = run_storm_comparison(spec)
        report = comparison.with_backpressure
        _emit(
            args, comparison.as_dict(),
            lambda: f"{report.render()}\n\n{comparison.render()}",
        )
    else:
        report, _scenario = run_storm(spec)
        print(report.render())
    return _verdict(
        report.survived,
        "the storm was not survived (stuck sessions, leaks, or an "
        "unbalanced journal)",
    )


def _cmd_load(args) -> int:
    from .sim import run_load

    report = run_load(build_spec(args))
    _emit(args, report.as_dict(), report.render, args.output)
    return _verdict(
        report.graceful_at_2x,
        "the service did not degrade gracefully at 2x saturation "
        "(starved clients, leaked reservations, dishonest hints, or the "
        "sweep never reached 2x capacity)",
    )


def _cmd_slo(args) -> int:
    from .sim import run_slo
    from .telemetry import write_flamegraph

    report = run_slo(build_spec(args))
    artifacts = []
    if args.timeseries is not None and report.recorder is not None:
        written = report.recorder.write_jsonl(args.timeseries)
        artifacts.append(f"{written} lines -> {args.timeseries}")
    if args.flamegraph is not None:
        lines = write_flamegraph(
            args.flamegraph, {args.scenario: report.paths}
        )
        artifacts.append(f"{lines} stacks -> {args.flamegraph}")
    if args.report is not None:
        artifacts.append(f"report -> {args.report}")
    _emit(
        args, report.as_dict(),
        lambda: "\n".join(
            [report.slo.render(), "", report.profile.render()]
            + [f"[{note}]" for note in artifacts]
        ),
        args.report,
    )
    return _verdict(
        not report.breached,
        f"SLO breach on the {args.scenario} scenario (burn-rate page or "
        "exhausted error budget)",
    )


def _cmd_profile(args) -> int:
    from .sim import run_load_cell_instrumented
    from .telemetry import (
        extract_critical_paths,
        profile_spans,
        write_flamegraph,
    )

    spec = build_spec(args)
    sections = {}
    documents = {}
    for multiplier in spec.multipliers:
        run = run_load_cell_instrumented(
            spec, multiplier, collect_spans=True
        )
        profile = profile_spans(run.spans)
        section = f"x{multiplier:g}"
        sections[section] = extract_critical_paths(run.spans)
        documents[section] = profile.as_dict()
        if not args.json:
            print(profile.render())
            bottleneck = profile.top_bottleneck
            if bottleneck is not None:
                print(f"x{multiplier:g}: top bottleneck {bottleneck} "
                      f"({profile.share(bottleneck) * 100:.1f}% of "
                      f"{profile.total_s:.3f}s)")
            print()
    if args.json:
        print(_dump(documents))
    if args.flamegraph is not None:
        lines = write_flamegraph(args.flamegraph, sections)
        if not args.json:
            print(f"[{lines} stacks -> {args.flamegraph}]")
    return 0


def _cmd_experiments(_args) -> int:
    from .util.tables import render_table

    print(
        render_table(
            ("id", "experiment", "bench target"),
            EXPERIMENT_INDEX,
            title="Experiment index (see EXPERIMENTS.md)",
        )
    )
    return 0


def _cmd_report(args) -> int:
    out_dir = pathlib.Path(args.out_dir)
    if not out_dir.is_dir():
        print(
            f"no results at {out_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    tables = sorted(out_dir.glob("*.txt"))
    if not tables:
        print(f"no tables in {out_dir}", file=sys.stderr)
        return 2
    for path in tables:
        print(path.read_text(encoding="utf-8").rstrip())
        print()
    print(f"[{len(tables)} experiment tables from {out_dir}]")
    return 0


def _cmd_lint(args) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def _cmd_typecheck(args) -> int:
    from .analysis.cli import run_typecheck

    return run_typecheck(args)


def main(argv: "Sequence[str] | None" = None) -> int:
    from .util.errors import NotFoundError, SimulationError, ValidationError

    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "windows": _cmd_windows,
        "sweep": _cmd_sweep,
        "chaos": _cmd_chaos,
        "recover": _cmd_recover,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "storm": _cmd_storm,
        "load": _cmd_load,
        "slo": _cmd_slo,
        "profile": _cmd_profile,
        "experiments": _cmd_experiments,
        "report": _cmd_report,
        "lint": _cmd_lint,
        "typecheck": _cmd_typecheck,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except (NotFoundError, SimulationError, ValidationError) as error:
        print(f"bad {args.command} run: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
