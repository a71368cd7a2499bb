"""Pipeline orchestration and report rendering.

run_analyze wires geometry verification, the spectral summary, degree
computations and the existence decision into a ReportDocument with both a
human-readable text form and a deterministic machine-readable JSON form
(identical configuration text yields byte-identical machine output).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .chars import character_table
from .config import AnalysisConfig, family_spec, linearization_spec
from .degrees import DegreeEngine, DegreeReport
from .geometry import ConditionReport, check_conditions
from .lattice import level_for_modes
from .spectra import SpectralSummary, analysed_modes, spectral_summary

PUBLISHED_FORM_NOTES = [
    "mode eigenvalues are computed from the full delay sum; the published "
    "folded half-sum (with its even-m correction term) disagrees for even m "
    "and is reported only for comparison",
    "the published smallness condition 'sum |mu_j| > -4' is vacuous as "
    "printed; the touching-condition chain actually needs "
    "min_C |grad eta| - R * sum |mu_j| > 0",
    "the published growth constants swap A and B relative to the displayed "
    "bound; sound constants are computed from the certified gradient bound",
    "the published zeroth-mode eigenvalue display sums mu_j to index m; the "
    "sum runs to m-1",
    "the published boundary-gradient display is inconsistent with direct "
    "differentiation away from the symmetry angles; honest values are used "
    "for all condition checks, the published display is kept as a "
    "comparison oracle",
]


@dataclass
class ReportDocument:
    config_echo: dict
    conditions: ConditionReport | None
    spectral: SpectralSummary | None
    degrees: DegreeReport | None
    watermark: str | None
    notes: list[str]
    truncation_levels: tuple[int, int] | None
    exit_code: int

    def machine_dict(self) -> dict:
        out: dict = {"notes": sorted(self.notes),
                     "published_form_notes": PUBLISHED_FORM_NOTES,
                     "config": self.config_echo}
        if self.watermark:
            out["watermark"] = self.watermark
        if self.truncation_levels:
            out["truncation_levels"] = list(self.truncation_levels)
        if self.conditions is not None:
            out["conditions"] = {
                "status": dict(sorted(self.conditions.status.items())),
                "witnesses": {k: round(v, 12) for k, v in
                              sorted(self.conditions.witnesses.items())},
                "constants": {k: _num(v) for k, v in
                              sorted(self.conditions.constants.items())},
                "notes": sorted(self.conditions.notes),
            }
        if self.spectral is not None:
            s = self.spectral
            out["spectral"] = {
                "kstar": s.kstar,
                "xi": {f"{k},{l}": _num(v) for (k, l), v in sorted(s.xis.items())},
                "negative": [list(p) for p in s.negative],
                "multiplicities": {f"{k},{l}": m for (k, l), m in
                                   sorted(s.multiplicities.items()) if m},
                "degenerate_modes": list(s.degenerate_modes),
                "nondegenerate": s.nondegenerate,
                "published_form_disagreements": [list(p) for p in
                                             s.published_form_disagreements()],
            }
        if self.degrees is not None:
            d = self.degrees
            out["degrees"] = {
                "basic": {f"{k},{l}": e.labeled() for (k, l), e in
                          sorted(d.basic_degrees.items())},
                "linearization": (d.degree_linearization.labeled()
                                  if d.degree_linearization else None),
                "omega": d.omega.labeled() if d.omega else None,
                "maximal_orbit_types": {str(k): v for k, v in
                                        sorted(d.maximal_orbit_types.items())},
                "parities": {f"{lbl}@{k}": p for (lbl, k), p in
                             sorted(d.parities.items())},
                "certificates": [
                    {"class": c.label, "fold": c.fold,
                     "non_constant": c.non_constant,
                     "extended_orbit_type": c.extended_orbit_type,
                     "parity": c.parity}
                    for c in d.certificates],
                "degenerate": d.degenerate,
                "degenerate_fold": d.degenerate_fold,
            }
        out["exit_code"] = self.exit_code
        return out

    def machine_text(self) -> str:
        return json.dumps(self.machine_dict(), sort_keys=True, indent=1) + "\n"

    def text(self) -> str:
        lines = []
        if self.watermark:
            lines.append(f"*** {self.watermark} ***")
        if self.conditions is not None:
            lines.append("condition checks:")
            for k, v in sorted(self.conditions.status.items()):
                w = self.conditions.witnesses.get(k)
                lines.append(f"  {k}: {v}" + (f" (witness theta = {w:.6f})" if w is not None else ""))
            lines.append("constants: " + ", ".join(
                f"{k} = {_fmt(v)}" for k, v in sorted(self.conditions.constants.items())))
        if self.spectral is not None:
            s = self.spectral
            lines.append(f"spectrum: K* = {s.kstar}, negative modes "
                         f"{[f'({k},{l})' for k, l in s.negative]}, "
                         f"degenerate = {list(s.degenerate_modes) or 'none'}")
            for (k, l), v in sorted(s.xis.items()):
                lines.append(f"  xi_({k},{l}) = {_fmt(v)}")
        if self.degrees is not None:
            d = self.degrees
            for (k, l), e in sorted(d.basic_degrees.items()):
                lines.append(f"deg[V({k},{l})] = {e.render()}")
            if d.degree_linearization is not None:
                lines.append(f"deg(linearization) = {d.degree_linearization.render()}")
            if d.omega is not None:
                lines.append(f"omega = {d.omega.render()}")
            for k, mots in sorted(d.maximal_orbit_types.items()):
                lines.append(f"maximal orbit types at mode {k}: {', '.join(mots)}")
            if d.degenerate:
                lines.append(f"degenerate path, fold s = {d.degenerate_fold}")
            if d.certificates:
                lines.append("certificates:")
                for c in d.certificates:
                    lines.append(
                        f"  {c.label}: fold {c.fold}, parity {c.parity}, "
                        f"{'non-constant' if c.non_constant else 'possibly constant'}, "
                        f"extended orbit type")
            else:
                lines.append("no existence certificates")
        lines.append("published-form notes:")
        for n in PUBLISHED_FORM_NOTES:
            lines.append(f"  - {n}")
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines) + "\n"


def _num(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return round(v, 12)
    return v


def _fmt(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def make_engine(cfg: AnalysisConfig, modes) -> DegreeEngine:
    """The engine for cfg's group at the configured truncation level (the
    CLI's --truncation sets it), else at level_for_modes of the modes."""
    level = cfg.truncation_base or level_for_modes(cfg.group_n, modes)
    return DegreeEngine(cfg.group_kind, cfg.group_n, base_level=level)


def run_analyze(cfg: AnalysisConfig, skip_geometry: bool = False,
                engine: DegreeEngine | None = None) -> ReportDocument:
    notes: list[str] = []
    watermark = None
    conditions = None
    # the spectrum needs only the character table; it sizes the one engine.
    # Built first, so a component index out of range refuses before any work
    spec = linearization_spec(cfg, character_table(cfg.group_kind, cfg.group_n))
    fam = family_spec(cfg)
    if fam is not None:
        conditions = check_conditions(fam, grid=cfg.boundary_grid)
        geometry_ok = conditions.all_passed()
    else:
        geometry_ok = True
        notes.append("no domain supplied; geometry checks skipped")

    config_echo = {
        "group": f"{cfg.group_kind}:{cfg.group_n}",
        "delays_m": cfg.delays_m,
        "mu": {k: [str(_num(v)) for v in row] for k, row in sorted(cfg.mu.items())},
        "multiplicity": {a.label: a.multiplicity for a in cfg.assignments},
    }

    if not geometry_ok and not skip_geometry:
        failed = [k for k, v in (conditions.status if conditions else {}).items()
                  if v != "pass"]
        notes.append(f"geometry hypotheses not verified: {failed}")
        return ReportDocument(config_echo, conditions, None, None, None,
                              notes, None, exit_code=20)
    if not geometry_ok:
        watermark = "hypotheses unverified"

    summary = spectral_summary(spec)
    if engine is None:
        # the active modes, and on a degenerate spectrum the modes tested
        engine = make_engine(cfg, summary.active_modes
                             + analysed_modes(summary, cfg.degenerate_search_bound)[1])
    degrees = engine.existence_analysis(spec, summary, cfg.degenerate_search_bound)
    notes.extend(degrees.notes)
    notes.extend(sorted(set(engine.lattice.escape_log)))
    exit_code = 0 if degrees.certificates else 10
    return ReportDocument(config_echo, conditions, summary, degrees,
                          watermark, notes,
                          (engine.lattice.m_lo, engine.lattice.m_hi), exit_code)
