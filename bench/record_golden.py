"""Write the oracle's goldens (golden/*.json) from the revdeg in ``src``.

    PYTHONPATH=src python3 bench/record_golden.py

The committed goldens were recorded from the commit that added the
benchmark; re-record only when a change to the outputs is intended and
argued.  Each golden is what the workload's ``produce`` returns for seed 0
(no golden depends on the seed).  For a gamma_sweep item that raises, the
golden keeps the error's type as the item's recorded refusal, and as its
value the basic degree at twice the engine's base level, which the item
must return once the level policy no longer refuses it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import GOLDEN_DIR, OUT_DIR, WORKLOADS  # noqa: E402

SWEEP_KEY = re.compile(r"(\w+):(\d+):V\((\d+),(\d+)\)")


def sweep_golden(results: dict) -> dict:
    from revdeg.degrees import DegreeEngine

    items, refusals = {}, {}
    for key, got in results.items():
        if isinstance(got, str):
            items[key] = got
            continue
        refusals[key] = got[0]
        kind, n, k, l = SWEEP_KEY.fullmatch(key).groups()
        base = DegreeEngine(kind, int(n)).lattice.m_lo
        higher = DegreeEngine(kind, int(n), base_level=2 * base)
        items[key] = higher.basic_degree(int(k), int(l)).render()
    return {"items": items, "refusals": refusals}


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    for name, (setup, produce, _) in WORKLOADS.items():
        golden = produce(setup(0))
        if name == "gamma_sweep":
            golden = sweep_golden(golden)
        text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text)
        print(f"wrote {name}", flush=True)


if __name__ == "__main__":
    main()
