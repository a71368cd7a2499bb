"""Independent witnesses the tests compare the library against; no revdeg
run reaches them.

- reconstruct: the inverse of burnside.recurrence.
- mark_product: the product of two classes of O(2) x Gamma x Z2 by the
  Burnside-ring multiplication recurrence over exact Weyl orders and
  containment counts, with no truncation level and no double coset.
- full_orbit, two_level_n_count: a class's conjugates under the full group
  walked at a truncation level, and a containment count scanned over them
  at the base levels M and 2M, whatever the classes' own levels.
- finite_product, brute_orbit_product: the product of two subgroup classes
  of a finite group in its Burnside ring, by double-coset counting and by a
  direct orbit partition of G/H x G/K (Balanov-Krawcewicz-Steinlein,
  *Applied Equivariant Degree*, AIMS 2006).
- d_sign_oracle: the sign of the linearization on a fixed space, from
  explicit projector bases rather than from the parity formula.
- direct_isotropy, direct_basic_degree: the isotropy classes and basic
  degree of a mode computed at that mode by the stabilizer sampler on the
  truncation at the working level and the recurrence over fixed_dim(k, ...):
  for a mode k >= 2 rather than folded from mode 1, and for modes 0 and 1
  rather than sampled on Gamma x Z2 and at m_sample.
- parse_labeled_element, parse_rendered: the printed forms of a Burnside
  element read back.
- octagon_published_curvature, octagon_published_gradient: the published
  closed forms for the octagonal example domain.
- phi_integral_inv: the inverse of geometry.phi_integral.
- cutoff_certificate: whether the cutoff bound proves every mode above K*
  positive.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from revdeg.burnside import BurnsideElement, recurrence
from revdeg.degrees import DegreeEngine, IncompleteLattice
from revdeg.groups import FiniteGroup, SubgroupClass, coset_intersections, double_cosets
from revdeg.spectra import LinearizationSpec, SpectralSummary

# -- Burnside ring -------------------------------------------------------------


def reconstruct(e: BurnsideElement, ids) -> dict[int, int]:
    """Inverse of the recurrence: d_H = sum_{(L)>=(H)} n_L n(H,L) |W(L)|."""
    lattice = e.lattice
    coeffs = e.as_dict()
    out = {}
    for h in ids:
        acc = 0
        for l, nl in coeffs.items():
            if nl == 0:
                continue
            cnt = lattice.n_count(h, l)
            if cnt:
                acc += nl * cnt * lattice.weyl(l)
        out[h] = acc
    return out


@functools.cache
def _exact_n_count(lattice, i: int, j: int) -> int:
    return lattice.exact_n_count(i, j)


@functools.cache
def _exact_weyl(lattice, cid: int) -> int:
    return lattice.exact_weyl(cid)


def mark_product(lattice, i: int, j: int) -> dict[int, int]:
    """(H)*(K), H = class i and K = class j of finite Weyl group, by the
    multiplication recurrence of the Burnside ring (Balanov-Krawcewicz-
    Steinlein 2006) over the interned classes (L) of finite Weyl group,
    the largest first:

        n_L |W(L)| = n(L,H)|W(H)| n(L,K)|W(K)| - sum_{(L') > (L)} n_L' n(L,L') |W(L')|

    with exact_n_count and exact_weyl (cached per lattice); a division
    that is not exact raises AssertionError."""
    ids = lattice.sorted_ids(c for c in range(len(lattice.classes)) if lattice.finite_weyl(c))
    out: dict[int, int] = {}
    for l in ids:
        total = (_exact_n_count(lattice, l, i) * _exact_weyl(lattice, i)
                 * _exact_n_count(lattice, l, j) * _exact_weyl(lattice, j))
        total -= sum(v * _exact_n_count(lattice, l, m) * _exact_weyl(lattice, m)
                     for m, v in out.items())
        coeff, rest = divmod(total, _exact_weyl(lattice, l))
        assert rest == 0, f"n_L of {lattice.labels[l]} is not whole: {total}/{_exact_weyl(lattice, l)}"
        if coeff:
            out[l] = coeff
    return out


@functools.cache
def full_orbit(lattice, cid: int, level: int) -> np.ndarray:
    """The conjugates of class cid under O(2) x Gamma x Z2 at level, as the
    rows of its representative's full-group walk (conjugates_full); cached
    per lattice, so the lattice keeps no orbit of a test's."""
    return lattice.conjugates_full(lattice.representative(cid, level), level)[0]


def two_level_n_count(lattice, i: int, j: int) -> int:
    """n(i, j) scanned at m_lo and at m_hi: the conjugates of class j there
    holding every member of class i's representative, asserted equal at the
    two levels."""
    counts = []
    for level in (lattice.m_lo, lattice.m_hi):
        in_h = np.zeros(lattice.group_at(level).order, dtype=bool)
        h = lattice.representative(i, level)
        in_h[h] = True
        rows = full_orbit(lattice, j, level)
        counts.append(int(np.count_nonzero(in_h[rows].sum(axis=1) == len(h))))
    assert counts[0] == counts[1], (lattice.labels[i], lattice.labels[j], counts)
    return counts[0]


def finite_product(g: FiniteGroup, classes: list[SubgroupClass],
                   i: int, j: int) -> dict[int, int]:
    """(H_i)*(H_j) in A(g) by double-coset counting (all Weyl groups finite)."""
    class_of = {conj: c.class_id for c in classes for conj in c.conjugates}
    out: dict[int, int] = {}
    h, k = classes[i].representative, classes[j].representative
    for inter in coset_intersections(g, h, k, double_cosets(g, h, k)):
        cid = class_of[tuple(inter.tolist())]
        out[cid] = out.get(cid, 0) + 1
    return out


def brute_orbit_product(g: FiniteGroup, classes: list[SubgroupClass],
                        i: int, j: int) -> dict[int, int]:
    """(H_i)*(H_j) by direct orbit partition of G/H_i x G/H_j."""
    class_of = {conj: c.class_id for c in classes for conj in c.conjugates}
    act_i, reps_i = _coset_action(g, classes[i].representative)
    act_j, reps_j = _coset_action(g, classes[j].representative)
    ni, nj = act_i.shape[1], act_j.shape[1]
    seen = np.zeros(ni * nj, dtype=bool)
    out: dict[int, int] = {}
    for p in range(ni * nj):
        if seen[p]:
            continue
        a, b = divmod(p, nj)
        orbit_a, orbit_b = act_i[:, a], act_j[:, b]
        pts = orbit_a * nj + orbit_b
        seen[pts] = True
        stab = np.nonzero(pts == p)[0]
        cid = class_of[tuple(stab.tolist())]
        out[cid] = out.get(cid, 0) + 1
    return out


def _coset_action(g: FiniteGroup, members) -> tuple[np.ndarray, list[int]]:
    """Left action of g on cosets of the subgroup; returns (action, coset reps).
    action[x, c] = index of the coset x * (reps[c] H)."""
    mem = np.asarray(members, dtype=np.int64)
    coset_of = -np.ones(g.order, dtype=np.int64)
    reps = []
    for x in range(g.order):
        if coset_of[x] >= 0:
            continue
        coset = g.table[x, mem]
        coset_of[coset] = len(reps)
        reps.append(x)
    action = coset_of[g.table[:, np.asarray(reps, dtype=np.int64)]]
    return action, reps


# -- sign of the linearization on a fixed space --------------------------------


def rep_dim(engine: DegreeEngine, k: int, l: int) -> int:
    return (1 if k == 0 else 2) * engine.component_dim(l)


def linearization_matrix(engine: DegreeEngine, spec: LinearizationSpec,
                         k: int, l: int) -> np.ndarray:
    """Real matrix of the mode-k linearization block on W_k (x) V_l^-,
    assembled from the delay sum (not from the eigenvalue formula)."""
    dl = engine.component_dim(l)
    dim = rep_dim(engine, k, l)
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


def d_sign_oracle(engine: DegreeEngine, spec: LinearizationSpec, cid: int,
                  summary: SpectralSummary) -> int:
    """Sign of det of the linearization restricted to the cid-fixed space,
    via explicit projector bases; independent of the parity formula."""
    level = engine.lattice.m_lo
    sign = 1
    for k in range(summary.kstar + 1):
        for l in spec.components:
            r = engine.fixed_dim(k, l, cid)
            if r == 0:
                continue
            proj = engine.fixed_projector(k, l, cid, level)
            w, vecs = np.linalg.eigh(proj)
            basis = vecs[:, w > 0.5]
            if basis.shape[1] != r:
                raise IncompleteLattice(
                    f"projector rank {basis.shape[1]} != character dim {r}")
            block = basis.T @ linearization_matrix(engine, spec, k, l) @ basis
            s, _ = np.linalg.slogdet(block)
            sign *= int(s) ** spec.mult[l]
    return sign


# -- a mode computed at that mode -------------------------------------------------


def direct_isotropy(engine: DegreeEngine, k: int, l: int) -> list[int]:
    """The isotropy classes of W_k (x) V_l^- by the stabilizer sampler run
    at mode k on the truncation at the working level m_lo, certified
    against the fixed dimensions at mode k: at modes 0 and 1 the witness of
    the engine's sampling on Gamma x Z2 and at m_sample, above mode 1 an
    unfolded witness."""
    iso = engine._sampled_isotropy(k, l, engine.lattice.m_lo)
    engine._certify_isotropy(k, l, iso)
    return iso


def direct_basic_degree(engine: DegreeEngine, k: int, l: int) -> BurnsideElement:
    """deg V(k,l) by the recurrence over the fixed dimensions at mode k of
    every finite-Weyl class, once direct_isotropy has interned the classes."""
    direct_isotropy(engine, k, l)
    lat = engine.lattice
    d = {cid: (-1) ** engine.fixed_dim(k, l, cid)
         for cid in range(len(lat.classes)) if lat.finite_weyl(cid)}
    return recurrence(d, lat)


# -- printed-element round trip ---------------------------------------------------


def parse_labeled_element(lattice, pairs) -> BurnsideElement:
    """Inverse of BurnsideElement.labeled(): [(label, coeff), ...] -> element."""
    return BurnsideElement.from_dict(
        lattice, {lattice.class_id_by_label(lbl): int(c) for lbl, c in pairs})


def parse_rendered(lattice, text: str) -> BurnsideElement:
    """Inverse of BurnsideElement.render()."""
    text = text.strip()
    if text == "0":
        return BurnsideElement(lattice, ())
    out: dict[int, int] = {}
    sep = "\x1f"
    for chunk in text.replace("- ", sep + "-").replace("+ ", sep + "+").split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = -1 if chunk.startswith("-") else 1
        body = chunk.lstrip("+- ").strip()
        mag = 1
        if not body.startswith("("):
            digits = body[:body.index("(")]
            mag = int(digits)
            body = body[body.index("("):]
        cid = lattice.class_id_by_label(body)
        out[cid] = out.get(cid, 0) + sign * mag
    return BurnsideElement.from_dict(lattice, out)


# -- published closed forms of the octagonal domain ------------------------------


def octagon_published_curvature(theta: float) -> float:
    """Published closed-form boundary curvature of the octagonal domain."""
    u8, u16 = math.cos(8 * theta), math.cos(16 * theta)
    return (math.sqrt(2) * (-19 + 56 * u8 - 3 * u16) * (2 - u8) ** 1.25
            / (13 - 8 * u8 - 3 * u16) ** 1.5)


def octagon_published_gradient(theta: float) -> float:
    """Published closed-form |grad eta| display for the octagonal boundary.

    Note: this display is not consistent with direct differentiation of eta
    away from the symmetry angles (the published curvature formula is); it is
    kept verbatim as a comparison oracle for the published figure values.
    """
    u8 = math.cos(8 * theta)
    val = 52 - 51 * u8 + 4 * math.cos(16 * theta) - math.cos(24 * theta)
    return 2 * math.sqrt(val) / (2 - u8)


def phi_integral_inv(a: float, b: float, y: float) -> float:
    return math.sqrt(a / b * math.expm1(2 * b * y))


# -- spectral cutoff -----------------------------------------------------------------


def cutoff_certificate(spec: LinearizationSpec, kstar: int) -> bool:
    """True iff the bound proves xi_{k,l} > 0 for every k > kstar."""
    k = kstar + 1
    return all(1 - (1 + spec.abs_mu_sum(l)) / (1 + k * k) > 0
               for l in spec.components)
