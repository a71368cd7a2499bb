"""From linearization data to existence certificates.

Builds the isotypic components W_k (x) V_l^- over the dihedral truncation,
computes fixed-space dimensions by character averaging, basic degrees via the
recurrence, the degree of the linearization by two independent routes
(product of basic degrees with parity collapse, and a direct recurrence from
summed fixed-space parities), the invariant omega, maximal orbit types by
certified stabilizer sampling, mode parities, and the existence decision
procedure for both the nondegenerate and the degenerate spectrum case.

A sampled stabilizer is looked up in the lattice's orbit index before it is
lifted or closed (ClassLattice.lookup): a stabilizer found there is a
conjugate of a truncated closed subgroup, so it is a subgroup already, and
its class gives its O(2)-part; only a hit whose fold is too close to the
level, or a miss, is checked against the level, and only a miss is checked
with closure and interned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import burnside as br
from .burnside import BurnsideElement, recurrence, unit
from .chars import CharacterTable, as_int, character_table, minus_irreps, natural_component
from .groups import closure
from .lattice import ClassLattice, O2Desc, TruncationInstability
from .spectra import (
    FOLD_SEARCH_BOUND,
    LinearizationSpec,
    SpectralSummary,
    degenerate_fold_search,
    spectral_summary,
    xi,
)

STAB_TOL = 1e-7


def _stabilizer_errors(mats: np.ndarray, p: np.ndarray) -> np.ndarray:
    """max_i |(M_g p - p)_i| for every stacked matrix M_g, all M_g p from one
    product of the stacked rows.  The maximum runs over the d <= 4
    coordinates one column at a time: a reduction along a short last axis
    costs several times more."""
    d = p.shape[0]
    prod = (mats.reshape(-1, d) @ p).reshape(-1, d)
    err = np.abs(prod[:, 0] - p[0])
    for i in range(1, d):
        np.maximum(err, np.abs(prod[:, i] - p[i]), out=err)
    return err


class RouteDisagreement(RuntimeError):
    """Product-of-basic-degrees and direct recurrence gave different elements."""


class IncompleteLattice(RuntimeError):
    """Stabilizer sampling failed its fixed-space consistency certificate."""


@dataclass(frozen=True)
class Certificate:
    """Existence certificate for a non-constant periodic solution."""

    class_id: int
    label: str
    fold: int
    non_constant: bool
    extended_orbit_type: bool
    parity: int


@dataclass
class DegreeReport:
    basic_degrees: dict[tuple[int, int], BurnsideElement]
    degree_linearization: BurnsideElement | None
    omega: BurnsideElement | None
    maximal_orbit_types: dict[int, list[str]]  # mode -> class labels
    parities: dict[tuple[str, int], int]       # (class label, mode) -> frak n
    certificates: list[Certificate]
    degenerate: bool
    degenerate_fold: int | None
    notes: list[str]


class DegreeEngine:
    """Degree computations for G = O(2) x Gamma x Z2 over a ClassLattice."""

    def __init__(self, kind: str, n: int, base_level: int | None = None):
        self.kind, self.n = kind, n
        self.table: CharacterTable = character_table(kind, n)
        self.minus = minus_irreps(self.table)
        if base_level is None:
            # a fixed default; analyze and the CLI size theirs by report.base_level
            base_level = 4 * math.lcm(n, 4, 2)
        self.lattice = ClassLattice(kind, n, base_level)
        self._mat_cache: dict = {}
        self._fix_cache: dict = {}
        # (k, level) -> 2cos(2 pi k t / level) at rotation t, 0 at reflections
        self._rot_factor: dict[tuple[int, int], np.ndarray] = {}
        self._iso_cache: dict = {}
        # sampled stabilizer members, as the orbit index keys them (sorted
        # int32 bytes) -> class id, None for a cyclic fold
        self._stab_class: dict[bytes, int | None] = {}
        self._deg_cache: dict = {}

    # -- components ------------------------------------------------------------

    def component_count(self) -> int:
        return len(self.minus)

    def component_dim(self, l: int) -> int:
        return self.table.irreps[self.minus[l]].dim

    def natural_component(self) -> int:
        """chars.natural_component of this engine's character table."""
        return natural_component(self.table)

    # -- representation matrices over the truncation ---------------------------

    def rep_matrices(self, k: int, l: int, level: int) -> np.ndarray:
        """Matrices of W_k (x) V_l^- for every element of the level-M truncation."""
        key = (k, l, level)
        if key in self._mat_cache:
            return self._mat_cache[key]
        lat = self.lattice
        g = lat.group_at(level)
        ir = self.table.irreps[self.minus[l]]
        idx = np.arange(g.order)
        t = (idx // lat.ng) % level
        refl = (idx // lat.ng) >= level
        ge = idx % lat.ng
        gm = ir.matrices[ge]
        if k == 0:
            mats = gm.copy()
        else:
            ang = -2 * np.pi * k * t / level  # e^{i theta} acts as e^{-ik theta}
            c, s = np.cos(ang), np.sin(ang)
            o2 = np.zeros((g.order, 2, 2))
            o2[:, 0, 0], o2[:, 0, 1] = c, -s
            o2[:, 1, 0], o2[:, 1, 1] = s, c
            conj = np.where(refl, -1.0, 1.0)  # kappa conjugates: z -> zbar first
            o2[:, 0, 1] *= conj
            o2[:, 1, 1] *= conj
            mats = np.einsum("nab,ncd->nacbd", o2, gm).reshape(
                g.order, 2 * ir.dim, 2 * ir.dim)
        mats.setflags(write=False)
        self._mat_cache[key] = mats
        return mats

    def rep_dim(self, k: int, l: int) -> int:
        return (1 if k == 0 else 2) * self.component_dim(l)

    # -- fixed-space dimensions -------------------------------------------------

    def fixed_dim(self, k: int, l: int, cid: int) -> int:
        """dim of the class-cid fixed subspace of W_k (x) V_l^-, stable across
        both truncation levels."""
        key = (k, l, cid)
        if key in self._fix_cache:
            return self._fix_cache[key]
        lat = self.lattice
        chi = self.table.irreps[self.minus[l]].char
        dims = []
        for level in (lat.m_lo, lat.m_hi):
            o2_idx, ge = np.divmod(lat._rep_array(cid, level), lat.ng)
            vals = chi[ge] if k == 0 else chi[ge] * self._rotation_factor(k, level)[o2_idx]
            dims.append(as_int(float(np.sum(vals)) / len(vals),
                               f"fixed dim of {lat.labels[cid]} on V({k},{l})"))
        if dims[0] != dims[1]:
            raise TruncationInstability(
                f"fixed dim of {lat.labels[cid]} on V({k},{l}) differs between levels")
        self._fix_cache[key] = dims[0]
        return dims[0]

    def _rotation_factor(self, k: int, level: int) -> np.ndarray:
        """The character of W_k at each O(2) index of D_level: 2cos(2 pi k t /
        level) at rotation t, 0 at every reflection."""
        key = (k, level)
        if key not in self._rot_factor:
            t = np.arange(level)
            self._rot_factor[key] = np.concatenate(
                [2 * np.cos(2 * np.pi * k * t / level), np.zeros(level)])
        return self._rot_factor[key]

    def fixed_projector(self, k: int, l: int, cid: int, level: int) -> np.ndarray:
        mats = self.rep_matrices(k, l, level)
        members = self.lattice._rep_array(cid, level)
        return mats[members].mean(axis=0)

    # -- stabilizer sampling ----------------------------------------------------

    def _uv_vector(self, k: int, l: int, u: complex, v: complex) -> np.ndarray:
        # coordinates of the element with W_k- and V_l-complex values (u, v)
        x0 = (u.real + v.real) / 2
        x3 = (v.real - u.real) / 2
        x1 = (u.imag + v.imag) / 2
        x2 = (u.imag - v.imag) / 2
        return np.array([x0, x1, x2, x3])

    def _sample_points(self, k: int, l: int) -> list[np.ndarray]:
        dl = self.component_dim(l)
        rng = np.random.default_rng(11)
        pts: list[np.ndarray] = []
        if k == 0 and dl == 1:
            pts.append(np.array([1.0]))
        elif (k == 0 and dl == 2) or (k >= 1 and dl == 1):
            angles = [j * np.pi / (2 * self.n) for j in range(4 * self.n)]
            pts.extend(np.array([np.cos(a), np.sin(a)]) for a in angles)
            pts.append(rng.normal(size=2))
        else:
            pts.append(self._uv_vector(k, l, 1.0, 0.0))
            pts.append(self._uv_vector(k, l, 0.0, 1.0))
            for rho in (1.0, 2.0):
                for j in range(4 * self.n):
                    a = j * np.pi / (2 * self.n)
                    pts.append(self._uv_vector(k, l, 1.0, rho * complex(np.cos(a), np.sin(a))))
            pts.append(self._uv_vector(k, l, 1.0, complex(0.7234, 1.3817)))
            pts.append(rng.normal(size=4))
        return pts

    def _stabilizer(self, mats: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Members g of the truncation with |M_g p - p| below the tolerance
        (the errors of _stabilizer_errors)."""
        err = _stabilizer_errors(mats, p)
        members = np.nonzero(err < STAB_TOL * max(1.0, float(np.abs(p).max())))[0]
        return members

    def isotropy_classes(self, k: int, l: int) -> list[int]:
        """Finite-Weyl isotropy classes of W_k (x) V_l^- \\ {0}, certified against
        fixed-space dimensions of every class in the working set."""
        key = (k, l)
        if key in self._iso_cache:
            return self._iso_cache[key]
        lat = self.lattice
        level = lat.m_lo
        g = lat.group_at(level)
        mats = self.rep_matrices(k, l, level)
        found: set[int] = set()
        for p in self._sample_points(k, l):
            cid = self._class_of_stabilizer(g, self._stabilizer(mats, p), level)
            if cid is not None:
                found.add(cid)
        # probe fixed spaces of everything currently known, including classes
        # discovered for other components, until no new classes appear
        rng = np.random.default_rng(7)
        frontier = True
        while frontier:
            frontier = False
            for cid in range(len(lat.classes)):
                if not lat.finite_weyl(cid):
                    continue
                if self.fixed_dim(k, l, cid) == 0:
                    continue
                proj = self.fixed_projector(k, l, cid, level)
                p = proj @ rng.normal(size=proj.shape[0])
                if np.abs(p).max() < 1e-9:
                    continue
                new = self._class_of_stabilizer(g, self._stabilizer(mats, p), level)
                if new is not None and new not in found:
                    found.add(new)
                    frontier = True
        iso = sorted(found)
        self._certify_isotropy(k, l, iso)
        self._iso_cache[key] = iso
        return iso

    def _class_of_stabilizer(self, g, members: np.ndarray, level: int) -> int | None:
        """Class id of a sampled stabilizer, given by its sorted members in
        the truncation g at level (always the lattice's m_lo), or None for a
        cyclic fold (infinite Weyl group).  Memoized by member set for the
        engine's life; a set that raises is not memoized, so it raises again
        on every visit.

        The set is looked up in the orbit index first (ClassLattice.lookup),
        which refuses an unstable truncation as lift would.  A hit is a row
        of an interned orbit, a conjugate of H ∩ (D_M x Gamma x Z2) for a
        closed subgroup H, so it is itself a subgroup, and its class's
        O(2)-part says whether it is a cyclic fold; only a miss is checked
        with closure (the IncompleteLattice certificate) and interned."""
        key = members.astype(np.int32).tobytes()
        if key in self._stab_class:
            return self._stab_class[key]
        lat = self.lattice
        cid, o2 = lat.lookup(members, level)
        cyclic = o2.kind == "Z"
        if cid is None:
            if len(closure(g, members).members) != len(members):
                raise IncompleteLattice("stabilizer not closed at tolerance")
            if not cyclic:
                cid = lat.ensure_handle(members, level)
        self._stab_class[key] = None if cyclic else cid
        return self._stab_class[key]

    def _certify_isotropy(self, k: int, l: int, iso: list[int]) -> None:
        lat = self.lattice
        for cid in range(len(lat.classes)):
            if not lat.finite_weyl(cid) or self.fixed_dim(k, l, cid) == 0:
                continue
            if not any(lat.leq(cid, j) for j in iso):
                raise IncompleteLattice(
                    f"class {lat.labels[cid]} fixes a vector of V({k},{l}) but lies "
                    f"under no sampled isotropy class")

    def maximal_orbit_types(self, k: int, l: int) -> list[int]:
        iso = self.isotropy_classes(k, l)
        candidates = [c for c in iso if c != 0]
        out = [c for c in candidates
               if not any(d != c and self.lattice.leq(c, d) for d in candidates)]
        return sorted(out)

    def maximal_orbit_types_mode(self, k: int, components: list[int]) -> list[int]:
        cands: set[int] = set()
        for l in components:
            cands.update(self.maximal_orbit_types(k, l))
        out = [c for c in cands
               if not any(d != c and self.lattice.leq(c, d) for d in cands)]
        return sorted(out)

    # -- degrees ----------------------------------------------------------------

    def basic_degree(self, k: int, l: int) -> BurnsideElement:
        """Degree of -id on the unit ball of W_k (x) V_l^-."""
        key = (k, l)
        if key in self._deg_cache:
            return self._deg_cache[key]
        self.isotropy_classes(k, l)
        lat = self.lattice
        d = {cid: (-1) ** self.fixed_dim(k, l, cid)
             for cid in range(len(lat.classes)) if lat.finite_weyl(cid)}
        deg = recurrence(d, lat)
        self._deg_cache[key] = deg
        return deg

    def degree_of_linearization(self, summary: SpectralSummary) -> BurnsideElement:
        """Product of basic degrees over the negative spectrum, parity-collapsed,
        cross-checked against the direct recurrence route."""
        deg = unit(self.lattice)
        for (k, l), m in sorted(summary.multiplicities.items()):
            if m % 2 == 1:
                deg = deg.multiply(self.basic_degree(k, l))
        direct = self._degree_direct(summary)
        if deg.coeffs != direct.coeffs:
            raise RouteDisagreement(
                "basic-degree product route disagrees with direct recurrence: "
                f"{deg.labeled()} vs {direct.labeled()}")
        return deg

    def _degree_direct(self, summary: SpectralSummary) -> BurnsideElement:
        lat = self.lattice
        d = {}
        for cid in range(len(lat.classes)):
            if not lat.finite_weyl(cid):
                continue
            total = sum(m * self.fixed_dim(k, l, cid)
                        for (k, l), m in summary.multiplicities.items() if m)
            d[cid] = (-1) ** total
        return recurrence(d, lat)

    def omega(self, summary: SpectralSummary) -> BurnsideElement:
        return unit(self.lattice) - self.degree_of_linearization(summary)

    # -- parities and existence --------------------------------------------------

    def frak_n(self, cid: int, k: int, summary: SpectralSummary) -> int:
        total = 0
        for l in summary.spec.components:
            m = summary.multiplicities.get((k, l), 0)
            if m:
                total += (self.fixed_dim(k, l, cid) % 2) * m
        return total

    def _non_constant(self, cid: int) -> bool:
        data = self.lattice.classes[cid]
        contains_o2 = (0 in data.rot_all) and (0 in data.refl_all)
        return not contains_o2

    def existence_analysis(self, spec: LinearizationSpec,
                           summary: SpectralSummary | None = None,
                           fold_search_bound: int = FOLD_SEARCH_BOUND) -> DegreeReport:
        """Degrees, maximal orbit types and certificates for spec; summary,
        when given, is spectral_summary(spec) already computed.  On a
        degenerate spectrum the fold s is searched up to fold_search_bound."""
        if summary is None:
            summary = spectral_summary(spec)
        notes: list[str] = []
        basic = {}
        parities: dict[tuple[int, int], int] = {}
        certificates: list[Certificate] = []
        max_types: dict[int, list[int]] = {}

        if summary.nondegenerate:
            degA = self.degree_of_linearization(summary)
            om = unit(self.lattice) - degA
            for (k, l), m in sorted(summary.multiplicities.items()):
                if m:
                    basic[(k, l)] = self.basic_degree(k, l)
            test_modes = [k for k in summary.active_modes if k >= 1]
            s_fold = None
        else:
            degA = None
            om = None
            s_fold = degenerate_fold_search(summary, fold_search_bound)
            if s_fold is None:
                notes.append("degenerate spectrum: no admissible fold s found "
                             "within the search bound")
                test_modes = []
            else:
                notes.append(f"degenerate spectrum: using fold s = {s_fold}")
                test_modes = [q for q in range(s_fold, summary.kstar + 1, 2 * s_fold)]

        active_components = sorted({l for (k, l), m in summary.multiplicities.items() if m})
        for k in test_modes:
            comps = active_components or summary.spec.components
            mots = self.maximal_orbit_types_mode(k, comps)
            max_types[k] = [self.lattice.labels[c] for c in mots]
            for cid in mots:
                p = self.frak_n(cid, k, summary)
                parities[(self.lattice.labels[cid], k)] = p
                if p % 2 == 1:
                    certificates.append(Certificate(
                        class_id=cid,
                        label=self.lattice.labels[cid],
                        fold=k,
                        non_constant=self._non_constant(cid),
                        extended_orbit_type=True,
                        parity=p,
                    ))
        return DegreeReport(
            basic_degrees=basic,
            degree_linearization=degA,
            omega=om,
            maximal_orbit_types=max_types,
            parities=parities,
            certificates=certificates,
            degenerate=not summary.nondegenerate,
            degenerate_fold=s_fold,
            notes=notes,
        )

    # -- independent sign oracle ---------------------------------------------------

    def linearization_matrix(self, spec: LinearizationSpec, k: int, l: int) -> np.ndarray:
        """Real matrix of the mode-k linearization block on W_k (x) V_l^-,
        assembled from the delay sum (not from the eigenvalue formula)."""
        dl = self.component_dim(l)
        dim = self.rep_dim(k, l)
        acc = np.zeros((dim, dim))
        for j, mu_j in enumerate(spec.mu[l]):
            ang = 2 * np.pi * j * k / spec.m
            if k == 0:
                acc += float(mu_j) * np.eye(dl)
            else:
                rot = np.array([[np.cos(ang), -np.sin(ang)],
                                [np.sin(ang), np.cos(ang)]])
                acc += float(mu_j) * np.kron(rot, np.eye(dl))
        return np.eye(dim) + (acc - np.eye(dim)) / (1 + k * k)

    def d_sign_oracle(self, spec: LinearizationSpec, cid: int,
                      summary: SpectralSummary) -> int:
        """Sign of det of the linearization restricted to the cid-fixed space,
        via explicit projector bases; independent of the parity formula."""
        level = self.lattice.m_lo
        sign = 1
        for k in range(summary.kstar + 1):
            for l in spec.components:
                r = self.fixed_dim(k, l, cid)
                if r == 0:
                    continue
                proj = self.fixed_projector(k, l, cid, level)
                w, vecs = np.linalg.eigh(proj)
                basis = vecs[:, w > 0.5]
                if basis.shape[1] != r:
                    raise IncompleteLattice(
                        f"projector rank {basis.shape[1]} != character dim {r}")
                block = basis.T @ self.linearization_matrix(spec, k, l) @ basis
                s, _ = np.linalg.slogdet(block)
                sign *= int(s) ** spec.mult[l]
        return sign
