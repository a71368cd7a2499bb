"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--trace | --setup-only]

The launcher (run.py) starts one of these per pass, because ``ru_maxrss`` is
a high-water mark for the whole process.  The last line of standard output
is one JSON object: ``setup_s`` (from process start through importing
revdeg and making the inputs), ``wall_s`` (the workload's calls into revdeg
through the verified output), ``ref_s`` (the mean time of the reference
loop, run once before the pass and, in an untraced pass, every 0.1 s
during it; its runs are not counted in ``wall_s``), ``peak_rss_mb``, the
item counts and, with ``--trace``, the per-layer values named in
BENCHMARK.json.  ``--setup-only`` stops after the inputs are made.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 -- imports after START count towards setup_s
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Outcome, load_golden  # noqa: E402

REF_EVERY_S = 0.1  # period of the reference loop during an untraced pass


def make_reference():
    """A fixed piece of work (about 6 ms) that calls nothing in revdeg but
    looks like its inner loops: conjugate a 16-member set through a 64 x 64
    table with numpy, then hash it.  Its data fit in the L1 cache, so what the
    workload leaves in the caches barely moves it, and it makes no object the
    garbage collector tracks, so it cannot move a collection into or out of
    the workload.  Returns a function that runs it once and returns its wall
    time."""
    import numpy as np

    table = (np.arange(64 * 64, dtype=np.int64) * 7919 % 64).reshape(64, 64)
    members = np.arange(0, 64, 4, dtype=np.int64)

    def reference() -> float:
        t0 = time.perf_counter()
        acc = 0
        for x in range(1000):
            acc ^= hash(np.sort(table[table[x % 64, members], 7 * x % 64]).tobytes())
        return time.perf_counter() - t0

    return reference


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    setup, produce, check = WORKLOADS[args.workload]

    inputs = setup(args.seed)
    setup_s = time.perf_counter() - START
    origin = Path(sys.modules["revdeg"].__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        sys.stderr.write(f"revdeg was imported from {origin}, not from this checkout\n")
        return 2
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    golden = load_golden(args.workload)
    reference = make_reference()
    reference()  # warm-up
    refs = [reference()]
    if args.trace:
        tracer = Tracer().install()
    else:
        # the host's speed drifts by tens of percent over tens of seconds on a
        # shared host, so it is sampled all through the pass, from a timer
        tracer = None
        signal.signal(signal.SIGALRM, lambda *_: refs.append(reference()))
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    t0 = time.perf_counter()
    try:
        outcome = check(produce(inputs), golden)
    except Exception:  # noqa: BLE001 -- an escaping error fails the pass, loudly
        outcome = Outcome(attempted=1)
        outcome.fail(traceback.format_exc())
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s = time.perf_counter() - t0 - sum(refs[1:])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        wall_s=wall_s, ref_s=sum(refs) / len(refs), peak_rss_mb=peak_rss_mb,
        attempted=outcome.attempted, refused=outcome.refused,
        failed=outcome.failed, problems=outcome.problems)
    if tracer is not None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        result["layers"] = {m["name"]: tracer.value(m["name"]) for m in declared}
        result["untraced"] = sorted(tracer.missing.values())
        tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
                    workload=args.workload, seed=args.seed, wall_s=wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
