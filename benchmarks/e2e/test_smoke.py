"""Schema and smoke test for the end-to-end benchmark.

Sits outside tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import schema  # noqa: E402


def test_table_stays_within_the_contract_limits():
    assert schema.check_limits() == []
    assert len(schema.WORKLOADS) <= 8
    assert len(schema.END_TO_END) <= 16
    assert len(schema.PER_LAYER) <= 128
    names = [w.name for w in schema.WORKLOADS]
    names += [m.name for m in schema.END_TO_END + schema.PER_LAYER]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_benchmark_json_is_the_table():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == schema.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads",
        "end_to_end", "per_layer",
    }


def test_smoke_reports_every_metric_for_every_workload():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20.0, f"smoke took {elapsed:.1f} s"
    report = json.loads((HERE / "out" / "results-smoke.json").read_text())
    assert report["failed"] == 0
    assert set(report["workloads"]) == {w.name for w in schema.WORKLOADS}
    for workload in schema.WORKLOADS:
        entry = report["workloads"][workload.name]
        assert entry["digest_stable"], workload.name
        assert set(entry["end_to_end"]) == {
            m.name for m in schema.END_TO_END
        }
        for name, cell in entry["end_to_end"].items():
            assert cell["median"] > 0, (workload.name, name)
        assert set(entry["per_layer"]) == {
            m.name for m in schema.PER_LAYER
            if schema.applies(m, workload.name)
        }
    for key in ("python", "numpy", "networkx", "cpu", "nproc",
                "loadavg_1m_start", "loadavg_1m_end", "noisy"):
        assert key in report["environment"], key


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no source
    tree, so no result may be printed."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "plan_unshared", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
