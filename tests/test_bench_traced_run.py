"""A traced benchmark run must end in a result line that carries every
per-layer metric BENCHMARK.json declares.  When a tracer target no longer
resolves in revdeg, bench/run.py still exits 0 but names the target on
standard error and leaves its metrics out of that line, and a line short of
a declared metric is not a benchmark result.  This test runs bench/run.py
on every workload BENCHMARK.json declares and changes nothing under bench/."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_carries_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert "not in revdeg" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = BENCH["per_layer"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert [m["name"] for m in declared if m["name"] not in values] == []
    assert all(math.isfinite(v) for v in values.values())
