"""The three benchmark workloads and their output oracle.

Each workload has three steps.  ``setup(seed)`` imports what it needs and
makes the inputs from the seed (this is what ``setup_s`` times).
``produce(inputs)`` makes the calls into revdeg and returns the outputs the
oracle pins, in the shape of the workload's golden.  ``check(outputs,
golden)`` compares them with the golden recorded from the seed commit and
returns an ``Outcome``.  ``wall_s`` times ``produce`` and ``check``
together; record_golden.py writes what ``produce`` returns.  ``produce``
reaches revdeg only through module attributes looked up at call time, so a
tracer installed after ``setup`` sees every call.

Why each workload exists is written up in NOTES.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
OUT_DIR = HERE.parent / ".bench_out"  # analyze reports, span dumps

# Gamma blocks of gamma_sweep, as (kind, n)
GAMMAS = [("dihedral", 1), ("dihedral", 2), ("dihedral", 3), ("dihedral", 4),
          ("dihedral", 6), ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 6)]
SWEEP_MODES = (0, 1, 2)

# relative tolerance for the geometry constants and witnesses of analyze_example
FLOAT_TOL = 1e-12


@dataclass
class Outcome:
    """Items attempted; items refused with the typed error the oracle records
    for them at the seed commit; items failed (raised anything else, or gave
    an output that differs from the golden), with one line per difference."""

    attempted: int = 0
    refused: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def load_golden(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


def _diff(path: str, got, want, out: list[str]) -> None:
    if isinstance(want, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and isinstance(want, (int, float))
              and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)))
        if not ok:
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            _diff(f"{path}.{k}", got.get(k), want.get(k), out)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, out)
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")


def check_single(outputs: dict, golden: dict) -> Outcome:
    """One item: every output equal to the golden's (floats to FLOAT_TOL)."""
    outcome = Outcome(attempted=1)
    _diff("output", outputs, golden, outcome.problems)
    outcome.failed = 1 if outcome.problems else 0
    return outcome


# -- analyze_example ------------------------------------------------------------


def setup_analyze(seed: int):
    # the input is the shipped example; the seed only names the output file.
    # Parsing it here checks the input and puts config parsing in setup_s.
    from revdeg import cli, config

    config.parse_config(config.example_config_text())
    out = OUT_DIR / f"analyze_example-{seed}.json"
    argv = ["analyze", "--config", "example", "--format", "machine",
            "--unsafe-skip-geometry", "--out", str(out)]
    return cli, argv, out


def report_digest(report: dict) -> dict:
    """The parts of a machine report the oracle pins: every Burnside element,
    class label, certificate, truncation level and A4 verdict, plus the
    geometry constants and witnesses (compared to FLOAT_TOL)."""
    cond = report.get("conditions") or {}
    return {
        "exit_code": report.get("exit_code"),
        "truncation_levels": report.get("truncation_levels"),
        "a4": {k: v for k, v in (cond.get("status") or {}).items() if k.startswith("A4")},
        "constants": cond.get("constants"),
        "witnesses": cond.get("witnesses"),
        "degrees": report.get("degrees"),
    }


def produce_analyze(inputs) -> dict:
    cli, argv, out = inputs
    if out.exists():
        out.unlink()
    code = cli.main(argv)
    if not out.exists():
        raise RuntimeError(f"analyze exited {code} without a report")
    return {"digest": report_digest(json.loads(out.read_text()))}


# -- omega_d8_m64 ---------------------------------------------------------------


def setup_omega(seed: int):
    # natural plane, m = 1, mu a rational in the open interval (-9, -4): the
    # negative modes are {0, 1, 2} for every such mu
    from revdeg import degrees, spectra

    rng = random.Random(seed)
    den = rng.randint(1, 64)
    mu = Fraction(rng.randint(-9 * den + 1, -4 * den - 1), den)
    return degrees, spectra, mu


def produce_omega(inputs) -> dict:
    degrees, spectra, mu = inputs
    engine = degrees.DegreeEngine("dihedral", 8, base_level=64)
    nat = engine.natural_component()
    spec = spectra.LinearizationSpec(1, {nat: (mu,)}, {nat: 1})
    report = engine.existence_analysis(spec)
    return {"omega": report.omega.render() if report.omega is not None else None,
            "certificates": sorted([c.label, c.fold, c.parity, c.non_constant]
                                   for c in report.certificates)}


# -- gamma_sweep ----------------------------------------------------------------


def setup_sweep(seed: int):
    # the seed only shuffles the order of the Gamma blocks
    from revdeg import degrees

    order = list(GAMMAS)
    random.Random(seed).shuffle(order)
    return degrees, order


def sweep_key(kind: str, n: int, k: int, l: int) -> str:
    return f"{kind}:{n}:V({k},{l})"


def produce_sweep(inputs) -> dict:
    """Per item key, the rendered basic degree, or the raised error's type
    name and message as a tuple (not the error: its traceback would keep the
    block's engine alive)."""
    degrees, order = inputs
    results: dict = {}
    for kind, n in order:
        engine = degrees.DegreeEngine(kind, n)
        for l in range(engine.component_count()):
            for k in SWEEP_MODES:
                key = sweep_key(kind, n, k, l)
                try:
                    results[key] = engine.basic_degree(k, l).render()
                except Exception as exc:  # noqa: BLE001 -- every raise is an outcome
                    results[key] = (type(exc).__name__, str(exc))
        del engine  # free this block's engine before the next one is built
    return results


def check_sweep(results: dict, golden: dict) -> Outcome:
    outcome = Outcome(attempted=len(results))
    items, refusals = golden["items"], golden["refusals"]
    for key, got in results.items():
        if isinstance(got, tuple):
            if refusals.get(key) == got[0]:
                outcome.refused += 1
            else:
                outcome.fail(f"{key} raised {got[0]}: {got[1]}")
        elif got != items.get(key):
            outcome.fail(f"{key}: {got} != {items.get(key)}")
    if len(results) != len(items):
        outcome.fail(f"sweep ran {len(results)} items, golden has {len(items)}")
    return outcome


# name -> (setup, produce, check)
WORKLOADS = {
    "analyze_example": (setup_analyze, produce_analyze, check_single),
    "omega_d8_m64": (setup_omega, produce_omega, check_single),
    "gamma_sweep": (setup_sweep, produce_sweep, check_sweep),
}
