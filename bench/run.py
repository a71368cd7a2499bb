"""revdeg benchmark: one command that runs a workload, checks its outputs
against the goldens, and prints every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the checkout's ``src/revdeg``.
Every pass runs in a fresh worker process (worker.py), one after another,
with numpy/BLAS pinned to one thread.

--trace 0: five set-up-only workers, passes while the next one can end
within S seconds (at least one), five more set-up-only workers.  Reports
the medians of ``wall_ref`` (a pass's wall time divided by the mean time of
the worker's reference loop, sampled all through the pass, so that the
host's speed divides out), ``peak_rss_mb`` and ``setup_s`` (all set-up
samples, the passes' included).  The pass times in seconds are printed
above the JSON.

--trace 1: one untraced pass and one traced pass.  Reports the per-layer
metrics of the traced pass, and ``trace.overhead_s``, its wall time minus
the untraced pass's.  A metric whose function revdeg no longer defines is
left out, and named on standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
items whose output differs from the golden or that raised anything but the
typed refusal the golden records for them; any such item makes the run
incorrect and the exit code 1.  The error rate printed above the JSON also
counts the recorded refusals.  Without a checkout around it (no
``src/revdeg``) the command prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10
DEADLINE_S = 175  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s: {' '.join(extra)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace, deadline: float) -> tuple[list[dict], dict]:
    """Run the workers; returns (passes, metric values)."""
    if args.trace:
        plain = run_worker(args, deadline)
        traced = run_worker(args, deadline, "--trace")
        if traced["untraced"]:
            sys.stderr.write("not in revdeg, so their metrics are left out: "
                             f"{', '.join(traced['untraced'])}\n")
        values = {k: v for k, v in traced["layers"].items() if v is not None}
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return [plain, traced], values

    def probe_setup() -> list[float]:
        return [run_worker(args, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_PROBES // 2)]

    # half the set-up samples before the passes and half after, so that their
    # median spans the run, as the passes do
    setups = probe_setup()
    passes: list[dict] = []
    start, took = time.monotonic(), 0.0
    # start a pass only if it should end within S seconds, judging by the last one
    while not passes or time.monotonic() - start + took <= args.seconds:
        t = time.monotonic()
        passes.append(run_worker(args, deadline))
        took = time.monotonic() - t
    setups += probe_setup()
    values = {
        "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
    }
    return passes, values


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    # a terminated launcher raises SystemExit, so subprocess.run kills and
    # waits for the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "revdeg" / "__init__.py").is_file():
        sys.stderr.write(f"no revdeg checkout around {HERE}: src/revdeg is missing\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        passes, values = measure(args, deadline)
    except BenchError as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1

    attempted = sum(p["attempted"] for p in passes)
    refused = sum(p["refused"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            sys.stderr.write(f"ORACLE MISMATCH [{args.workload}] {problem}\n")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {len(passes)} pass(es): "
          + ", ".join(f"{p['wall_s']:.3f} s" for p in passes)
          + "; reference loop: " + ", ".join(f"{p['ref_s'] * 1e3:.3f} ms" for p in passes))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  wall_s = {statistics.median(p['wall_s'] for p in passes):.6g} s "
              "(not in the JSON: the host's speed moves it, wall_ref divides that out)")
    print(f"  error_rate = {refused + failed}/{attempted} = "
          f"{(refused + failed) / attempted:.6g} ratio "
          f"(refused as recorded at the seed commit: {refused}, failed: {failed})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
