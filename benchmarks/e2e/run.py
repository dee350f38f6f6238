"""The repo's wall-clock benchmark: one command, six workloads.

Driver contract (one workload per invocation; the last line of stdout
is one JSON object)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Suite (every workload: 3 untraced runs + 1 traced run, each a fresh
process; prints every metric by name with its unit and writes
``benchmarks/e2e/out/results.json``; the smoke run makes 1 + 1)::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S]
    python3 benchmarks/e2e/run.py --check-repeat   # the suite twice, compared
    python3 benchmarks/e2e/run.py --smoke          # ~1/20 size, under 20 s
    python3 benchmarks/e2e/run.py --list           # the metric table

The script finds ``src/`` next to ``benchmarks/`` itself, so no
``PYTHONPATH`` is needed; without the source tree it exits 2 before
printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
UNTRACED_RUNS = 3
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.2


def _import_stack() -> None:
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"run.py: no source tree at {source}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(source))


# -- one workload (the driver contract) --------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    _import_stack()
    import harness
    import schema

    outcome = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    units = {m.name: m.unit for m in schema.END_TO_END + schema.PER_LAYER}
    for name, value in outcome.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if outcome.layer_shares:
        print("self-time share per layer (the ceiling on any claim):")
        for layer, share in outcome.layer_shares.items():
            print(f"  {layer:<24s} {share:7.2%}")
    print(f"rounds = {outcome.rounds}  digest = {outcome.digest}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


# -- the suite ---------------------------------------------------------------------


def _child(
    workload: str, seed: int, seconds: float, trace: int, scale: float
) -> "dict[str, object]":
    """One fresh process per run, so peak RSS belongs to the workload."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", str(scale),
        ],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload} (trace {trace}) printed no result:\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    digests = [line for line in lines if line.startswith("rounds = ")]
    result["digest"] = digests[-1].rsplit(" ", 1)[-1] if digests else ""
    return result


def _quartiles(values: "list[float]") -> "dict[str, object]":
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> "dict[str, object]":
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _run_workload(
    name: str, seed: int, seconds: float, scale: float, untraced_runs: int
) -> "dict[str, object]":
    import schema

    untraced = [
        _child(name, seed, seconds, 0, scale) for _ in range(untraced_runs)
    ]
    traced = _child(name, seed, seconds, 1, scale)
    runs = untraced + [traced]
    digests = {run["digest"] for run in runs}
    return {
        "digest": sorted(digests)[0],
        # Outcome drift between repeats of one seed is a failure.
        "digest_stable": len(digests) == 1,
        "attempted": sum(int(run["attempted"]) for run in runs),
        "failed": sum(int(run["failed"]) for run in runs)
        + int(len(digests) != 1),
        "end_to_end": {
            m.name: dict(
                _quartiles([
                    run["metrics"][m.name]["value"] for run in untraced
                ]),
                unit=m.unit, bound=m.bound,
            )
            for m in schema.END_TO_END
        },
        "per_layer": {
            m.name: {
                "value": traced["metrics"][m.name]["value"],
                "unit": m.unit,
            }
            for m in schema.PER_LAYER
            if schema.applies(m, name)
        },
    }


def run_suite(
    seed: int,
    seconds: float,
    scale: float,
    untraced_runs: int = UNTRACED_RUNS,
    jobs: int = 1,
) -> "dict[str, object]":
    """Every workload.  Measuring runs keep ``jobs`` at 1 so that no
    two processes share the machine; the smoke run, which checks
    function and not speed, uses every core."""
    import schema

    environment = _environment()
    names = [workload.name for workload in schema.WORKLOADS]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        entries = list(pool.map(
            lambda name: _run_workload(
                name, seed, seconds, scale, untraced_runs
            ),
            names,
        ))
    for name, entry in zip(names, entries):
        print(f"\n== {name} ==  digest {entry['digest'][:16]}")
        for metric, cell in entry["end_to_end"].items():
            print(
                f"  {metric:<40s} {cell['median']:>14.6g} {cell['unit']:<6s}"
                f" [q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g},"
                f" n {cell['n']}; bound {cell['bound']}]"
            )
        for metric, cell in entry["per_layer"].items():
            print(f"  {metric:<40s} {cell['value']:>14.6g} {cell['unit']}")
    environment["loadavg_1m_end"] = os.getloadavg()[0]
    environment["noisy"] = bool(
        max(environment["loadavg_1m_start"], environment["loadavg_1m_end"])
        > (environment["nproc"] or 1)
    )
    print(f"\nenvironment: {json.dumps(environment)}")
    if environment["noisy"]:
        print("NOISY: the 1-minute load average exceeded nproc")
    return {
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "workloads": dict(zip(names, entries)),
        "environment": environment,
        "failed": sum(int(entry["failed"]) for entry in entries),
    }


def compare(first: dict, second: dict) -> "list[str]":
    """Where two suite runs of one seed disagree beyond the benchmark's
    own bounds: timed end-to-end medians within their bound, exact
    metrics and digests bit-equal."""
    import schema

    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        if a["digest"] != b["digest"]:
            problems.append(f"{name}: outcome digest differs")
        for metric in schema.END_TO_END:
            x = a["end_to_end"][metric.name]["median"]
            y = b["end_to_end"][metric.name]["median"]
            if metric.name in schema.EXACT:
                if x != y:
                    problems.append(f"{name}: {metric.name} {x} != {y}")
            elif abs(x - y) > metric.bound * min(abs(x), abs(y)):
                problems.append(
                    f"{name}: {metric.name} {x:.6g} vs {y:.6g} "
                    f"beyond {metric.bound}"
                )
        for metric_name in schema.EXACT:
            if metric_name in a["per_layer"]:
                x = a["per_layer"][metric_name]["value"]
                y = b["per_layer"][metric_name]["value"]
                if x != y:
                    problems.append(f"{name}: {metric_name} {x} != {y}")
    return problems


def print_table() -> None:
    import schema

    print("workloads")
    for w in schema.WORKLOADS:
        print(f"  {w.name}: {w.why}")
        print(f"      inputs:    {w.inputs}")
        print(f"      dominant:  {w.dominant}")
        print(f"      bypasses:  {w.bypasses}")
    print("\nend-to-end (median of untraced runs; bound = tolerated worsening)")
    for m in schema.END_TO_END:
        exact = " exact" if m.name in schema.EXACT else ""
        print(f"  {m.name:<18s} {m.unit:<6s} {m.better:<6s} "
              f"bound {m.bound}{exact}: {m.moves}")
    print("\nper-layer (traced run; -> what it should move, where)")
    for m in schema.PER_LAYER:
        where = ", ".join(m.applies) if m.applies else "all workloads"
        exact = " [exact]" if m.name in schema.EXACT else ""
        print(f"  {m.name:<42s} {m.unit:<6s} {m.better:<6s}{exact} "
              f"({where}) -> {m.moves}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier (the smoke run's knob)")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.list:
        print_table()
        return 0
    _import_stack()
    import schema

    if args.workload is not None:
        if args.workload not in {w.name for w in schema.WORKLOADS}:
            parser.error(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = float(schema.RUN_SECONDS)
        return run_one(args)

    seconds = args.seconds
    scale = args.scale
    untraced_runs, jobs = UNTRACED_RUNS, 1
    if args.smoke:
        seconds, scale = SMOKE_SECONDS, SMOKE_SCALE
        untraced_runs, jobs = 1, os.cpu_count() or 1
    elif seconds is None:
        seconds = float(schema.RUN_SECONDS)
    report = run_suite(args.seed, seconds, scale, untraced_runs, jobs)
    status = 1 if report["failed"] else 0
    if args.check_repeat:
        again = run_suite(args.seed, seconds, scale, untraced_runs, jobs)
        report = {"first": report, "second": again}
        problems = compare(report["first"], again)
        for problem in problems:
            print(f"REPEAT MISMATCH {problem}")
        if not problems:
            print("repeat check: both sets agree within the bounds")
        status = 1 if problems or again["failed"] else status
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    target = out / ("results-smoke.json" if args.smoke else "results.json")
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
