"""Self-tests of the benchmark (slow: two traced passes of every workload).

    python3 -m pytest -q bench/test_bench.py

They check that BENCHMARK.json and the tracer agree, that each span fires
on the workload where NOTES.md says it is heavy and stays at zero where the
workload bypasses it, that every count repeats exactly between two traced
passes, and that the command refuses to run outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import child_env  # noqa: E402
from tracer import COUNTERS, DERIVED, SPANS, Tracer  # noqa: E402
from workloads import OUT_DIR  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]

# span -> workloads on which it does most of its work (the layer table of NOTES.md)
HEAVY = {
    "groups.direct_product": ["omega_d8_m64"],
    "groups.normalizer": ["gamma_sweep", "omega_d8_m64"],
    "groups.double_cosets": ["omega_d8_m64"],
    "groups.conjugate_members": ["omega_d8_m64", "gamma_sweep"],
    "groups.subgroup_classes": ["omega_d8_m64", "gamma_sweep"],
    "lattice.is_conjugate_full": ["omega_d8_m64"],
    "lattice.conjugates_full": ["gamma_sweep"],
    "lattice.ensure_handle": ["gamma_sweep"],
    "lattice.n_count": ["omega_d8_m64"],
    "lattice.product_classes": ["omega_d8_m64"],
    "burnside.multiply": ["omega_d8_m64"],
    "burnside.recurrence": ["omega_d8_m64"],
    "chars.character_table": ["gamma_sweep"],
    "degrees.engine_init": ["gamma_sweep", "omega_d8_m64"],
    "degrees.isotropy_classes": ["gamma_sweep"],
    "degrees.fixed_dim": ["gamma_sweep", "omega_d8_m64"],
    "degrees.rep_matrices": ["gamma_sweep"],
    "degrees.basic_degree": ["gamma_sweep"],
    "degrees.route_product": ["omega_d8_m64"],
    "degrees.route_direct": ["omega_d8_m64"],
    "spectra.spectral_summary": ["analyze_example"],
    "geometry.check_conditions": ["analyze_example"],
    "geometry.boundary_radius": ["analyze_example"],
    "geometry.eval_polar": ["analyze_example"],
    "geometry.curvature": ["analyze_example"],
    "config.parse_config": ["analyze_example"],
    "report.run_analyze": ["analyze_example"],
    "report.machine_text": ["analyze_example"],
    "cli.main": ["analyze_example"],
}


def traced_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    dump = json.loads((OUT_DIR / f"trace-{workload}-{seed}.json").read_text())
    result["counts"] = dump["counts"]
    return result


@pytest.fixture(scope="module")
def traced():
    """Two traced passes of every workload, with the same seed."""
    OUT_DIR.mkdir(exist_ok=True)
    return {w: [traced_pass(w, 1), traced_pass(w, 1)] for w in WORKLOADS}


def test_every_per_layer_metric_comes_from_a_declared_span():
    spans = {name for _, _, name, _ in SPANS} | {name for _, _, name in COUNTERS}
    assert set(HEAVY) == spans
    assert set(DERIVED.values()) <= spans
    for metric in PER_LAYER:
        if metric not in DERIVED and metric != "trace.overhead_s":
            assert metric.rpartition(".")[0] in spans, metric


def test_a_target_revdeg_lost_is_listed_and_has_no_value():
    tracer = Tracer()
    tracer._patch("revdeg.groups", "no_such_function", "groups.lost", lambda fn: fn)
    tracer._patch("revdeg.lattice", "ClassLattice.no_such_method", "lattice.ensure_handle",
                  lambda fn: fn)
    assert tracer.missing == {
        "groups.lost": "revdeg.groups.no_such_function",
        "lattice.ensure_handle": "revdeg.lattice.ClassLattice.no_such_method"}
    assert tracer.value("groups.lost.self_s") is None
    assert tracer.value("groups.lost.calls") is None
    assert tracer.value("lattice.classes_interned") is None
    assert tracer.value("groups.normalizer.calls") == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_the_oracle(traced, workload):
    for result in traced[workload]:
        assert result["failed"] == 0, result["problems"]
        assert result["refused"] == (2 if workload == "gamma_sweep" else 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_heavy_spans_fire(traced, workload):
    counts = traced[workload][0]["counts"]
    silent = [span for span, heavy in HEAVY.items()
              if workload in heavy and not counts.get(span + ".calls")]
    assert not silent


@pytest.mark.parametrize("workload", ["omega_d8_m64", "gamma_sweep"])
def test_geometry_is_bypassed(traced, workload):
    layers = traced[workload][0]["layers"]
    assert all(v == 0 for m, v in layers.items() if m.startswith("geometry.")), layers


def test_gamma_sweep_makes_no_products(traced):
    layers = traced["gamma_sweep"][0]["layers"]
    assert layers["lattice.product_classes.calls"] == 0
    assert layers["groups.double_cosets.calls"] == 0


def largest_self_time(layers: dict) -> str:
    return max((m for m in layers if m.endswith(".self_s")), key=layers.get)


def test_self_time_contrasts(traced):
    """The contrasts the workloads were chosen for, as measured at the commit
    that added the benchmark.  A change that speeds up the boundary solve or
    the conjugacy walk is expected to move them; this test then records that
    the contrast moved, not that the change is wrong."""
    assert largest_self_time(traced["analyze_example"][0]["layers"]).startswith("geometry.")
    assert largest_self_time(traced["omega_d8_m64"][0]["layers"]) == \
        "lattice.is_conjugate_full.self_s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced, workload):
    first, second = (r["layers"] for r in traced[workload])
    counts = [m for m in PER_LAYER if m.endswith(".calls") or m in DERIVED]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_refuses_to_run_outside_a_checkout():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
