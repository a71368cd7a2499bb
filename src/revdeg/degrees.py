"""From linearization data to existence certificates.

Builds the isotypic components W_k (x) V_l^- over the dihedral truncation,
computes fixed-space dimensions by character averaging, basic degrees via the
recurrence, the degree of the linearization by two independent routes
(product of basic degrees with parity collapse, and a direct recurrence from
summed fixed-space parities), the invariant omega, maximal orbit types by
certified stabilizer sampling, mode parities, and the existence decision
procedure for both the nondegenerate and the degenerate spectrum case.
The tests keep an independent sign oracle: the sign of the linearization on
each fixed space, from explicit projector bases rather than the parity
formula.

The stabilizer sampler runs at modes 0 and 1 only.  W_k is W_1 pulled back
along the k-fold map psi_k of O(2), so for k >= 2 the isotropy classes and
the basic degree of W_k (x) V_l^- are the images of mode 1's under the
preimage map Theta_k (ClassLattice.fold; Balanov-Krawcewicz-Steinlein,
*Applied Equivariant Degree*, 2006).  The images are still certified
against the fixed-space dimensions at mode k, and the direct route of
degree_of_linearization takes its fixed dimensions at mode k, so every
analysis compares the folded product route with an unfolded computation.

The sampler runs below the working level m_lo.  Mode 0 samples on the
|Gamma x Z2| matrices of V_l^- alone: O(2) acts trivially on W_0, so every
stabilizer is O(2) x F.  Mode 1 samples at the lattice's m_sample, on whose
grid every mode-1 stabilizer lies once a reflection axis is at 0 (m_lo
itself only under a level override that m_sample does not divide).  Each
stabilizer found is carried to m_lo by index arithmetic
(ClassLattice.at_working_level), looked up and interned there, so the
classes, their ids and their order are those the sampler finds at m_lo.

The stabilizer sampler draws nothing at random.  Besides structured points,
it takes the stabilizer of a generic point as the kernel {g : M_g = I} of the
representation, and the stabilizer of a generic point of each fixed space
V^H as the pointwise fixer {g : M_g P_H = P_H} of V^H's projector; both are
decided at the tolerance STAB_TOL, and every found class is certified
against the fixed-space dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .burnside import BurnsideElement, recurrence, unit
from .chars import CharacterTable, as_int, character_table, minus_irreps, natural_component
from .groups import closure
from .lattice import ClassLattice, default_level
from .spectra import (
    FOLD_SEARCH_BOUND,
    LinearizationSpec,
    SpectralSummary,
    analysed_modes,
    spectral_summary,
)

STAB_TOL = 1e-7


def _stabilizer_errors(mats: np.ndarray, p: np.ndarray) -> np.ndarray:
    """max |M_g p - p| over the entries, for every stacked matrix M_g; p is a
    point (shape (d,)) or d points as the columns of a (d, d) matrix.  All
    M_g p come from one (|G|·d, d) product of the stacked rows.  The maximum
    runs over the d or d·d entries one column at a time: a reduction along a
    short last axis costs several times more."""
    d = p.shape[0]
    prod = (mats.reshape(-1, d) @ p).reshape(len(mats), -1)
    ref = p.ravel()
    err = np.abs(prod[:, 0] - ref[0])
    for i in range(1, len(ref)):
        np.maximum(err, np.abs(prod[:, i] - ref[i]), out=err)
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
        # analyze and the CLI size their level by lattice.level_for_modes
        self.lattice = ClassLattice(
            kind, n, default_level(n) if base_level is None else base_level)
        self._fix_cache: dict = {}
        # (k, level) -> 2cos(2 pi k t / level) at rotation t, 0 at reflections
        self._rot_factor: dict[tuple[int, int], np.ndarray] = {}
        # (k, level) -> the 2x2 matrix of W_k at each O(2) index of D_level
        self._o2_mats: dict[tuple[int, int], np.ndarray] = {}
        self._iso_cache: dict = {}
        # (sampling level, sampled stabilizer members as sorted int32 bytes)
        # -> class id, None for a cyclic fold
        self._stab_class: dict[tuple[int | None, bytes], int | None] = {}
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

    def rep_matrices(self, k: int, l: int, level: int | None) -> np.ndarray:
        """Matrices of W_k (x) V_l^- for every element of
        lattice.group_at(level) (at None, Gamma x Z2 and mode 0 only), built
        on each call and not kept: isotropy_classes holds them for its own
        loop only."""
        return self._matrices(k, l, level, np.arange(self.lattice.group_at(level).order))

    def _matrices(self, k: int, l: int, level: int | None, idx: np.ndarray) -> np.ndarray:
        """Matrices of W_k (x) V_l^- for the elements idx of
        lattice.group_at(level): each the Kronecker product of its W_k and
        V_l^- parts; at mode 0, where W_k is trivial, the V_l^- part alone."""
        o2_idx, ge = np.divmod(idx, self.lattice.ng)
        gm = self.table.irreps[self.minus[l]].matrices[ge]
        if k == 0:
            return gm
        o2 = self._o2_matrices(k, level)[o2_idx]
        d = 2 * gm.shape[1]
        return np.einsum("nab,ncd->nacbd", o2, gm).reshape(len(idx), d, d)

    def _o2_matrices(self, k: int, level: int) -> np.ndarray:
        """The 2x2 matrix of W_k at each O(2) index of D_level: rotation t
        by -2 pi k t / level (e^{i theta} acts as e^{-ik theta}), a
        reflection the same with its second column negated (kappa
        conjugates: z -> zbar first)."""
        key = (k, level)
        if key not in self._o2_mats:
            j = np.arange(2 * level)
            ang = -2 * np.pi * k * (j % level) / level
            c, s = np.cos(ang), np.sin(ang)
            conj = np.where(j >= level, -1.0, 1.0)
            self._o2_mats[key] = np.stack([c, -s * conj, s, c * conj], axis=1).reshape(-1, 2, 2)
        return self._o2_mats[key]

    # -- fixed-space dimensions -------------------------------------------------

    def fixed_dim(self, k: int, l: int, cid: int) -> int:
        """dim of the class-cid fixed subspace of W_k (x) V_l^-, stable across
        both truncation levels."""
        key = (k, l, cid)
        if key not in self._fix_cache:
            lat = self.lattice
            chi = self.table.irreps[self.minus[l]].char
            what = f"fixed dim of {lat.labels[cid]} on V({k},{l})"

            def at(level: int) -> int:
                o2_idx, ge = np.divmod(lat.representative(cid, level), lat.ng)
                vals = chi[ge] if k == 0 else chi[ge] * self._rotation_factor(k, level)[o2_idx]
                return as_int(float(np.sum(vals)) / len(vals), what)

            self._fix_cache[key] = lat.at_both_levels(at, what)
        return self._fix_cache[key]

    def _rotation_factor(self, k: int, level: int) -> np.ndarray:
        """The character of W_k at each O(2) index of D_level, the trace of
        _o2_matrices: 2cos(2 pi k t / level) at rotation t, 0 at every
        reflection."""
        key = (k, level)
        if key not in self._rot_factor:
            self._rot_factor[key] = np.trace(self._o2_matrices(k, level), axis1=1, axis2=2)
        return self._rot_factor[key]

    def fixed_projector(self, k: int, l: int, cid: int, level: int | None) -> np.ndarray:
        """The projector onto the fixed subspace of W_k (x) V_l^- of a
        subgroup in class cid: the mean of the matrices of the members of
        lattice.representative(cid, level)."""
        members = self.lattice.representative(cid, level)
        return self._matrices(k, l, level, members).mean(axis=0)

    # -- stabilizer sampling ----------------------------------------------------

    def _uv_vector(self, k: int, l: int, u: complex, v: complex) -> np.ndarray:
        # coordinates of the element with W_k- and V_l-complex values (u, v)
        x0 = (u.real + v.real) / 2
        x3 = (v.real - u.real) / 2
        x1 = (u.imag + v.imag) / 2
        x2 = (u.imag - v.imag) / 2
        return np.array([x0, x1, x2, x3])

    def _sample_points(self, k: int, l: int) -> list[np.ndarray]:
        """Structured points of W_k (x) V_l^-, then, in dimension > 1, the
        identity matrix: its stabilizer is the kernel {g : M_g = I}, the
        stabilizer of a generic point."""
        dl = self.component_dim(l)
        pts: list[np.ndarray] = []
        if k == 0 and dl == 1:
            pts.append(np.array([1.0]))
        elif (k == 0 and dl == 2) or (k >= 1 and dl == 1):
            angles = [j * np.pi / (2 * self.n) for j in range(4 * self.n)]
            pts.extend(np.array([np.cos(a), np.sin(a)]) for a in angles)
            pts.append(np.eye(2))
        else:
            pts.append(self._uv_vector(k, l, 1.0, 0.0))
            pts.append(self._uv_vector(k, l, 0.0, 1.0))
            for rho in (1.0, 2.0):
                for j in range(4 * self.n):
                    a = j * np.pi / (2 * self.n)
                    pts.append(self._uv_vector(k, l, 1.0, rho * complex(np.cos(a), np.sin(a))))
            pts.append(self._uv_vector(k, l, 1.0, complex(0.7234, 1.3817)))
            pts.append(np.eye(4))
        return pts

    def _stabilizer(self, mats: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Members g of the truncation with |M_g p - p| below the tolerance
        (the errors of _stabilizer_errors): the stabilizer of a point p, or
        the pointwise fixer of the columns of a matrix p."""
        err = _stabilizer_errors(mats, p)
        members = np.nonzero(err < STAB_TOL * max(1.0, float(np.abs(p).max())))[0]
        return members

    def isotropy_classes(self, k: int, l: int) -> list[int]:
        """Finite-Weyl isotropy classes of W_k (x) V_l^- \\ {0}, certified against
        fixed-space dimensions of every class in the working set."""
        key = (k, l)
        if key in self._iso_cache:
            return self._iso_cache[key]
        if k >= 2:
            # the images of mode 1's, interned in increasing mode-1 class id
            iso = sorted(self.lattice.fold(c, k) for c in self.isotropy_classes(1, l))
        else:
            iso = self._sampled_isotropy(k, l, None if k == 0 else self.lattice.m_sample)
        self._certify_isotropy(k, l, iso)
        self._iso_cache[key] = iso
        return iso

    def _sampled_isotropy(self, k: int, l: int, level: int | None) -> list[int]:
        """The isotropy classes the stabilizer sampler finds at mode k on
        lattice.group_at(level), sorted, before their certificate.  The
        engine samples mode 0 at None (Gamma x Z2) and mode 1 at m_sample;
        any mode can be sampled at m_lo, where nothing is carried."""
        lat = self.lattice
        g = lat.group_at(level)
        mats = self.rep_matrices(k, l, level)
        found: set[int | None] = set()  # None: a cyclic fold
        for p in self._sample_points(k, l):
            found.add(self._class_of_stabilizer(g, self._stabilizer(mats, p), level))
        # probe the fixed space V^H of every class known so far, including
        # classes discovered for other components and those this loop
        # interns, once each: a generic point of V^H is fixed exactly by the
        # pointwise fixer {g : M_g P_H = P_H} of its projector P_H
        cid = 0
        while cid < len(lat.classes):
            if lat.finite_weyl(cid) and self.fixed_dim(k, l, cid):
                proj = self.fixed_projector(k, l, cid, level)
                found.add(self._class_of_stabilizer(g, self._stabilizer(mats, proj), level))
            cid += 1
        found.discard(None)
        return sorted(found)

    def _class_of_stabilizer(self, g, members: np.ndarray, level: int | None) -> int | None:
        """Class id of a sampled stabilizer, given by its sorted members in
        g = lattice.group_at(level), or None for a cyclic fold (infinite
        Weyl group).  Memoized by level and member set for the engine's
        life; a set that raises is not memoized, so it raises again on
        every visit.

        Below m_lo, a set holding every rotation of its level is refused
        (IncompleteLattice): there a full fold cannot be told from a finite
        one, and no stabilizer of a nonzero point of W_1 is either.  The set
        is carried to m_lo (ClassLattice.at_working_level) and looked up in
        the interned orbits there (ClassLattice.lookup), which refuses an
        unstable truncation as lift would.  A hit is a row of an interned
        orbit, a conjugate of H ∩ (D_M x Gamma x Z2) for a closed subgroup
        H, so it is itself a subgroup, and its class's O(2)-part says
        whether it is a cyclic fold; only a miss is checked with closure in
        g (the IncompleteLattice certificate) and interned at m_lo."""
        key = (level, members.astype(np.int32).tobytes())
        if key in self._stab_class:
            return self._stab_class[key]
        lat = self.lattice
        if level not in (None, lat.m_lo):
            t, refl, _ = lat.decode(members, level)
            if np.count_nonzero(np.bincount(t[~refl], minlength=level)) == level:
                raise IncompleteLattice(f"stabilizer holds every rotation of level {level}")
        at_lo = lat.at_working_level(members, level)
        cid, o2 = lat.lookup(at_lo, lat.m_lo)
        cyclic = o2.kind == "Z"
        if cid is None:
            if len(closure(g, members)) != len(members):
                raise IncompleteLattice("stabilizer not closed at tolerance")
            if not cyclic:
                cid = lat.ensure_handle(at_lo, lat.m_lo)
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

    def _maximal(self, cands) -> list[int]:
        """The members of cands under no other member (lattice.leq), sorted."""
        return sorted(c for c in cands
                      if not any(d != c and self.lattice.leq(c, d) for d in cands))

    def maximal_orbit_types(self, k: int, l: int) -> list[int]:
        return self._maximal([c for c in self.isotropy_classes(k, l) if c != 0])

    def maximal_orbit_types_mode(self, k: int, components: list[int]) -> list[int]:
        return self._maximal(set().union(*(self.maximal_orbit_types(k, l)
                                           for l in components)))

    # -- degrees ----------------------------------------------------------------

    def basic_degree(self, k: int, l: int) -> BurnsideElement:
        """Degree of -id on the unit ball of W_k (x) V_l^-."""
        key = (k, l)
        if key in self._deg_cache:
            return self._deg_cache[key]
        lat = self.lattice
        if k >= 2:
            # deg V(k,l) = Theta_k(deg V(1,l)); its classes other than (G)
            # are isotropy classes, which isotropy_classes interns first
            mode1 = self.basic_degree(1, l)
            self.isotropy_classes(k, l)
            deg = BurnsideElement.from_dict(lat, {lat.fold(c, k): v for c, v in mode1.coeffs})
        else:
            self.isotropy_classes(k, l)
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
        contains_o2 = data.o2.kind == "O2" and {0, self.lattice.ng} <= set(data.members)
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

        s_fold, test_modes = analysed_modes(summary, fold_search_bound)
        if summary.nondegenerate:
            degA = self.degree_of_linearization(summary)
            om = unit(self.lattice) - degA
            for (k, l), m in sorted(summary.multiplicities.items()):
                if m:
                    basic[(k, l)] = self.basic_degree(k, l)
        else:
            degA = None
            om = None
            notes.append("degenerate spectrum: no admissible fold s found within the "
                         "search bound" if s_fold is None
                         else f"degenerate spectrum: using fold s = {s_fold}")

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
