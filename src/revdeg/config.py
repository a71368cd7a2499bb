"""Analysis configuration: JSON schema, validation, and the shipped example.

A configuration fixes the symmetry group, the representation assignment
(user label -> irreducible component and isotypic multiplicity), the delay
count and mu table, the domain, and engine settings.  Parsing collects every
violation rather than stopping at the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .chars import CharacterTable, minus_irreps, natural_component
from .geometry import DomainSpec, FFamilySpec, PolarTrigPolynomial
from .spectra import FOLD_SEARCH_BOUND, MAX_CUTOFF, LinearizationSpec, cutoff


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
    degenerate_search_bound: int
    truncation_base: int | None
    boundary_grid: int


def _to_number(x):
    """An exact Fraction for a string or an integer, else a float; a bool,
    a zero denominator ("1/0") or a value that is not a finite float
    (NaN, 1e309, "1e400") is refused (ValueError)."""
    if isinstance(x, bool):
        raise ValueError(f"not a number: {x!r}")
    try:
        v = Fraction(x) if isinstance(x, (str, int)) else float(x)
        finite = math.isfinite(float(v))
    except (ZeroDivisionError, OverflowError) as e:
        raise ValueError(f"not finite: {x!r}") from e
    if not finite:
        raise ValueError(f"not finite: {x!r}")
    return v


def _is_finite_number(x) -> bool:
    """x is a JSON number (not a bool) that is a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def int_field(raw: dict, name: str, default, least: int, problems: list[str],
              what: str | None = None):
    """raw[name], which must be an integer >= least, else default when the
    key is absent (or null, where the default is None).  A violation is
    added to problems, naming the field as what (default: name), and gives
    None.  The CLI checks its integer arguments with it too."""
    v = raw.get(name, default)
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        problems.append(f"{what or name} must be an integer >= {least}, got {v!r}")
        return None
    return v


def _true_field(raw: dict, name: str, why: str, problems: list[str],
                what: str | None = None) -> None:
    """A field that may be omitted or set only to true; what as in int_field."""
    if raw.get(name, True) is not True:
        problems.append(f"{what or name} must be true ({why}), got {raw[name]!r}")


def _block(raw: dict, name: str, default, problems: list[str]):
    """raw[name], else default when the key is absent; a value that is not
    of default's JSON type (an object or an array) is added to problems and
    gives default."""
    v = raw.get(name, default)
    if not isinstance(v, type(default)):
        kind = "an object" if isinstance(default, dict) else "an array"
        problems.append(f"{name} must be {kind}, got {v!r}")
        return default
    return v


def _parse_domain(d, n: int, problems: list[str]) -> DomainSpec | None:
    """The domain block's DomainSpec, None when it has a problem; symmetry
    defaults to n."""
    try:
        eta = PolarTrigPolynomial.from_list(d["terms"])
        radius = float(d["R"])
        bounds = d.get("published_grad_bounds")
    except (KeyError, TypeError, ValueError) as e:
        problems.append(f"bad domain block: {e}")
        return None
    found = len(problems)
    symmetry = int_field(d, "symmetry", n, 1, problems, "domain.symmetry")
    if not math.isfinite(radius) or radius <= 0:
        problems.append(f"domain.R must be finite and > 0, got {d['R']!r}")
    _true_field(d, "star_shaped", "the boundary is solved along rays", problems,
                "domain.star_shaped")
    if bounds is not None and not (isinstance(bounds, list) and len(bounds) == 2
                                   and all(map(_is_finite_number, bounds))):
        problems.append(
            f"domain.published_grad_bounds must be two finite numbers, got {bounds!r}")
    if len(problems) > found:
        return None
    domain = DomainSpec(eta, symmetry, radius,
                        published_grad_bounds=tuple(bounds) if bounds else None)
    problems.extend(domain.validate())
    return domain


def parse_config(text: str) -> AnalysisConfig:
    problems: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    if not isinstance(raw, dict):
        raise ConfigError([f"the configuration must be an object, got {raw!r}"])

    group = _block(raw, "group", {}, problems)
    kind = group.get("kind", "dihedral")
    if kind not in ("dihedral", "cyclic"):
        problems.append(f"group.kind must be dihedral or cyclic, got {kind!r}")
    n = int_field(group, "n", 0, 1, problems, "group.n")
    m = int_field(raw, "delays_m", 1, 1, problems)

    assignments = []
    for entry in _block(raw, "representation", [], problems):
        if not isinstance(entry, dict):
            problems.append(f"a representation entry must be an object, got {entry!r}")
            continue
        label = entry.get("label", "?")
        if not isinstance(label, str):
            problems.append(f"a representation label must be a string, got {label!r}")
            continue
        if label in (a.label for a in assignments):
            problems.append(f"representation label {label!r} is given to two entries")
            continue
        sel = entry.get("irrep", "natural")
        mult = int_field(entry, "multiplicity", 1, 0, problems, f"multiplicity for {label!r}")
        if not isinstance(sel, str) or (sel not in ("gamma_trivial", "natural")
                                        and not sel.startswith("minus_index:")):
            problems.append(f"unknown irrep selector {sel!r} for {label!r}")
        elif sel.startswith("minus_index:") and not sel.split(":", 1)[1].isdecimal():
            problems.append(f"irrep {sel!r} for {label!r}: the index must be a "
                            "nonnegative integer")
        assignments.append(RepAssignment(label, sel, mult))
    if not assignments:
        problems.append("representation assignment is empty")

    mu = {}
    for label, row in _block(raw, "mu", {}, problems).items():
        try:
            vals = tuple(_to_number(x) for x in row)
        except (ValueError, TypeError):
            problems.append(f"mu row for {label!r} is not numeric and finite")
            continue
        if m is not None and len(vals) != m:
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
        domain = _parse_domain(raw["domain"], n or 1, problems)
    _true_field(raw, "family", "omit domain to skip the geometry", problems)

    search_bound = int_field(raw, "degenerate_search_bound", FOLD_SEARCH_BOUND, 0, problems)
    truncation_base = int_field(raw, "truncation_base", None, 1, problems)
    boundary_grid = int_field(raw, "boundary_grid", 4096, 2, problems)

    if problems:
        raise ConfigError(problems)
    return AnalysisConfig(
        group_kind=kind,
        group_n=n,
        delays_m=m,
        assignments=tuple(assignments),
        mu=mu,
        domain=domain,
        degenerate_search_bound=search_bound,
        truncation_base=truncation_base,
        boundary_grid=boundary_grid,
    )


def resolve_components(cfg: AnalysisConfig, table: CharacterTable) -> dict[str, int]:
    """Map user labels to internal minus-component indices (the order of
    chars.minus_irreps, which DegreeEngine shares).  An index past the
    group's minus components, or "natural" on a Gamma with no 2-dimensional
    irrep (D1, D2, Z1, Z2), is a ConfigError, and so are two entries on one
    component, whose mu rows the spectrum could not both hold."""
    out = {}
    count = len(minus_irreps(table))
    problems = []
    for a in cfg.assignments:
        if a.selector == "gamma_trivial":
            comp = 0
        elif a.selector == "natural":
            try:
                comp = natural_component(table)
            except ValueError:
                problems.append(f"irrep 'natural' for {a.label!r}: {cfg.group_kind}:"
                                f"{cfg.group_n} has no 2-dimensional natural component")
                continue
        else:
            comp = int(a.selector.split(":", 1)[1])
            if comp >= count:
                problems.append(f"irrep {a.selector!r} for {a.label!r}: "
                                f"{cfg.group_kind}:{cfg.group_n} has {count} minus components")
                continue
        same = [label for label, c in out.items() if c == comp]
        if same:
            problems.append(f"representation entries {same[0]!r} and {a.label!r} are both "
                            f"minus component {comp}; give one entry per component")
        out[a.label] = comp
    if problems:
        raise ConfigError(problems)
    return out


def linearization_spec(cfg: AnalysisConfig, table: CharacterTable) -> LinearizationSpec:
    """The spectrum's input; a cutoff K* above MAX_CUTOFF is a ConfigError,
    refused before any mode is computed."""
    comp = resolve_components(cfg, table)
    mu = {comp[a.label]: cfg.mu[a.label] for a in cfg.assignments}
    mult = {comp[a.label]: a.multiplicity for a in cfg.assignments}
    spec = LinearizationSpec(cfg.delays_m, mu, mult)
    if cutoff(spec) > MAX_CUTOFF:
        raise ConfigError([f"the spectral cutoff K* is above {MAX_CUTOFF}: the sum of "
                           f"|mu_j| of each mu row must be below {MAX_CUTOFF ** 2}"])
    return spec


def family_spec(cfg: AnalysisConfig) -> FFamilySpec | None:
    if cfg.domain is None:
        return None
    label = cfg.assignments[0].label
    return FFamilySpec(cfg.domain, tuple(float(v) for v in cfg.mu[label]))


def example_config_text() -> str:
    return (Path(__file__).parent / "data" / "example_d8.json").read_text()


def load_example() -> AnalysisConfig:
    return parse_config(example_config_text())
