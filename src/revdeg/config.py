"""Analysis configuration: JSON schema, validation, and the shipped example.

A configuration fixes the symmetry group, the representation assignment
(user label -> irreducible component and isotypic multiplicity), the delay
count and mu table, the domain, and engine toggles.  Parsing collects every
violation rather than stopping at the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .chars import CharacterTable, minus_irreps, natural_component
from .geometry import DomainSpec, FFamilySpec, PolarTrigPolynomial
from .spectra import FOLD_SEARCH_BOUND, LinearizationSpec


class ConfigError(ValueError):
    def __init__(self, problems):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class RepAssignment:
    label: str
    selector: str       # "gamma_trivial" | "natural" | "minus_index:<l>"
    multiplicity: int


@dataclass(frozen=True)
class AnalysisConfig:
    group_kind: str
    group_n: int
    delays_m: int
    assignments: tuple[RepAssignment, ...]
    mu: dict[str, tuple]                  # label -> mu row (Fractions or floats)
    domain: DomainSpec | None
    family: bool
    safe_side: bool
    degenerate_search_bound: int
    truncation_base: int | None
    boundary_grid: int
    tolerances: dict[str, float]


def _to_number(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def _int_field(raw: dict, name: str, default, least: int, problems: list[str]):
    """raw[name], which must be an integer >= least, else default when the
    key is absent (or null, where the default is None); a violation is added
    to problems."""
    v = raw.get(name, default)
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        problems.append(f"{name} must be an integer >= {least}, got {v!r}")
    return v


def parse_config(text: str) -> AnalysisConfig:
    problems: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e

    kind = raw.get("group", {}).get("kind", "dihedral")
    n = raw.get("group", {}).get("n", 0)
    if kind not in ("dihedral", "cyclic"):
        problems.append(f"group.kind must be dihedral or cyclic, got {kind!r}")
    if not isinstance(n, int) or n < 1:
        problems.append(f"group.n must be a positive integer, got {n!r}")

    m = raw.get("delays_m", 1)
    if not isinstance(m, int) or m < 1:
        problems.append(f"delays_m must be a positive integer, got {m!r}")

    assignments = []
    for entry in raw.get("representation", []):
        label = entry.get("label", "?")
        sel = entry.get("irrep", "natural")
        mult = entry.get("multiplicity", 1)
        if not isinstance(sel, str) or (sel not in ("gamma_trivial", "natural")
                                        and not sel.startswith("minus_index:")):
            problems.append(f"unknown irrep selector {sel!r} for {label!r}")
        elif sel.startswith("minus_index:") and not sel.split(":", 1)[1].isdecimal():
            problems.append(f"irrep {sel!r} for {label!r}: the index must be a "
                            "nonnegative integer")
        if not isinstance(mult, int) or mult < 0:
            problems.append(f"multiplicity for {label!r} must be a nonnegative integer")
        assignments.append(RepAssignment(label, sel, mult))
    if not assignments:
        problems.append("representation assignment is empty")

    mu = {}
    for label, row in raw.get("mu", {}).items():
        try:
            vals = tuple(_to_number(x) for x in row)
        except (ValueError, TypeError):
            problems.append(f"mu row for {label!r} is not numeric")
            continue
        if isinstance(m, int) and len(vals) != m:
            problems.append(f"mu row for {label!r} has length {len(vals)}, expected {m}")
        for j in range(1, len(vals)):
            if vals[j] != vals[len(vals) - j]:
                problems.append(
                    f"reversibility fails for {label!r}: mu_{j} != mu_{len(vals) - j}")
                break
        mu[label] = vals
    for a in assignments:
        if a.label not in mu:
            problems.append(f"no mu row for representation label {a.label!r}")

    domain = None
    if "domain" in raw:
        d = raw["domain"]
        try:
            eta = PolarTrigPolynomial.from_list(d["terms"])
            bounds = d.get("published_grad_bounds")
            domain = DomainSpec(
                eta, int(d.get("symmetry", n or 1)), float(d["R"]),
                star_shaped=bool(d.get("star_shaped", True)),
                published_grad_bounds=tuple(bounds) if bounds else None)
        except (KeyError, TypeError, ValueError) as e:
            problems.append(f"bad domain block: {e}")
        if domain is not None:
            problems.extend(domain.validate())

    search_bound = _int_field(raw, "degenerate_search_bound", FOLD_SEARCH_BOUND, 0, problems)
    truncation_base = _int_field(raw, "truncation_base", None, 1, problems)
    boundary_grid = _int_field(raw, "boundary_grid", 4096, 2, problems)
    tolerances = {}
    try:
        tolerances = {str(k): float(v) for k, v in raw.get("tolerances", {}).items()}
    except (AttributeError, TypeError, ValueError):
        problems.append(f"tolerances must map names to numbers, got {raw['tolerances']!r}")

    cfg = None
    if not problems:
        cfg = AnalysisConfig(
            group_kind=kind,
            group_n=n,
            delays_m=m,
            assignments=tuple(assignments),
            mu=mu,
            domain=domain,
            family=bool(raw.get("family", True)),
            safe_side=bool(raw.get("safe_side", True)),
            degenerate_search_bound=search_bound,
            truncation_base=truncation_base,
            boundary_grid=boundary_grid,
            tolerances=tolerances,
        )
    if problems:
        raise ConfigError(problems)
    return cfg


def resolve_components(cfg: AnalysisConfig, table: CharacterTable) -> dict[str, int]:
    """Map user labels to internal minus-component indices (the order of
    chars.minus_irreps, which DegreeEngine shares).  An index past the
    group's minus components is a ConfigError."""
    out = {}
    count = len(minus_irreps(table))
    problems = []
    for a in cfg.assignments:
        if a.selector == "gamma_trivial":
            out[a.label] = 0
        elif a.selector == "natural":
            out[a.label] = natural_component(table)
        else:
            out[a.label] = int(a.selector.split(":", 1)[1])
            if out[a.label] >= count:
                problems.append(f"irrep {a.selector!r} for {a.label!r}: "
                                f"{cfg.group_kind}:{cfg.group_n} has {count} minus components")
    if problems:
        raise ConfigError(problems)
    return out


def linearization_spec(cfg: AnalysisConfig, table: CharacterTable) -> LinearizationSpec:
    comp = resolve_components(cfg, table)
    mu = {comp[a.label]: cfg.mu[a.label] for a in cfg.assignments}
    mult = {comp[a.label]: a.multiplicity for a in cfg.assignments}
    return LinearizationSpec(cfg.delays_m, mu, mult)


def family_spec(cfg: AnalysisConfig) -> FFamilySpec | None:
    if cfg.domain is None or not cfg.family:
        return None
    label = cfg.assignments[0].label
    return FFamilySpec(cfg.domain, tuple(float(v) for v in cfg.mu[label]))


def example_config_text() -> str:
    return (Path(__file__).parent / "data" / "example_d8.json").read_text()


def load_example() -> AnalysisConfig:
    return parse_config(example_config_text())
