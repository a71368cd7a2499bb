"""The Burnside ring A(G) as a sparse integer module over a ClassLattice.

Products count double cosets: ClassLattice.product_classes (only the double
cosets whose intersection holds a reflection, unless both factors contain
SO(2)) and, for finite groups without the O(2) factor, finite_product, both
through groups.coset_intersections; brute_orbit_product partitions the
product of coset spaces as an independent oracle.  The recurrence converts
fixed-space Brouwer degrees into coefficients and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, SubgroupClass, coset_intersections
from .lattice import ClassLattice


class InconsistentDegreeData(ValueError):
    """Recurrence division came out non-integer: wrong d-values or poset."""


@dataclass(frozen=True)
class BurnsideElement:
    """Finitely supported integer combination of lattice classes."""

    lattice: ClassLattice
    coeffs: tuple[tuple[int, int], ...]  # (class id, coefficient), sorted, nonzero

    @staticmethod
    def from_dict(lattice: ClassLattice, d: dict[int, int]) -> "BurnsideElement":
        items = tuple(sorted((cid, c) for cid, c in d.items() if c != 0))
        return BurnsideElement(lattice, items)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def coeff(self, cid: int) -> int:
        return dict(self.coeffs).get(cid, 0)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        d = self.as_dict()
        for cid, c in other.coeffs:
            d[cid] = d.get(cid, 0) + c
        return BurnsideElement.from_dict(self.lattice, d)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.lattice, tuple((cid, -c) for cid, c in self.coeffs))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def scale(self, k: int) -> "BurnsideElement":
        if k == 0:
            return BurnsideElement(self.lattice, ())
        return BurnsideElement(self.lattice, tuple((cid, k * c) for cid, c in self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def multiply(self, other: "BurnsideElement") -> "BurnsideElement":
        out: dict[int, int] = {}
        for ci, a in self.coeffs:
            for cj, b in other.coeffs:
                for cid, m in self.lattice.product_classes(ci, cj).items():
                    out[cid] = out.get(cid, 0) + a * b * m
        return BurnsideElement.from_dict(self.lattice, out)

    def labeled(self) -> list[tuple[str, int]]:
        order = self.lattice.sorted_ids([cid for cid, _ in self.coeffs])
        d = self.as_dict()
        return [(self.lattice.labels[cid], d[cid]) for cid in order]

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for label, c in self.labeled():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = label if mag == 1 else f"{mag}{label}"
            parts.append(f"{sign} {term}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def unit(lattice: ClassLattice) -> BurnsideElement:
    """(G), the identity of A(G) (class 0 by construction)."""
    return BurnsideElement(lattice, ((0, 1),))


def generator(lattice: ClassLattice, cid: int) -> BurnsideElement:
    return BurnsideElement(lattice, ((cid, 1),))


def recurrence(d: dict[int, int], lattice: ClassLattice) -> BurnsideElement:
    """Coefficients n_H from fixed-space degrees d_H down the class poset:
    n_H = (d_H - sum_{(L)>(H)} n_L n(H,L) |W(L)|) / |W(H)|, division exact."""
    ids = lattice.sorted_ids(d.keys())
    n: dict[int, int] = {}
    for h in ids:
        acc = d[h]
        for l in ids:
            if l == h or n.get(l, 0) == 0:
                continue
            cnt = lattice.n_count(h, l)
            if cnt:
                acc -= n[l] * cnt * lattice.weyl(l)
        w = lattice.weyl(h)
        if w is None:
            raise InconsistentDegreeData(
                f"class {lattice.labels[h]} has infinite Weyl group")
        q, r = divmod(acc, w)
        if r != 0:
            raise InconsistentDegreeData(
                f"non-integer coefficient at {lattice.labels[h]}: {acc}/{w}")
        n[h] = q
    return BurnsideElement.from_dict(lattice, n)


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


# -- finite groups without the O(2) factor -----------------------------------


def finite_product(g: FiniteGroup, classes: list[SubgroupClass],
                   i: int, j: int) -> dict[int, int]:
    """(H_i)*(H_j) in A(g) by double-coset counting (all Weyl groups finite)."""
    class_of = {conj: c.class_id for c in classes for conj in c.conjugates}
    out: dict[int, int] = {}
    for inter in coset_intersections(g, classes[i].representative.members,
                                     classes[j].representative.members):
        cid = class_of[tuple(inter.tolist())]
        out[cid] = out.get(cid, 0) + 1
    return out


def brute_orbit_product(g: FiniteGroup, classes: list[SubgroupClass],
                        i: int, j: int) -> dict[int, int]:
    """(H_i)*(H_j) by direct orbit partition of G/H_i x G/H_j."""
    class_of = {conj: c.class_id for c in classes for conj in c.conjugates}
    act_i, reps_i = _coset_action(g, classes[i].representative.members)
    act_j, reps_j = _coset_action(g, classes[j].representative.members)
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
