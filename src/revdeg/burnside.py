"""The Burnside ring A(G) as a sparse integer module over a ClassLattice.

Products count double cosets through ClassLattice.product_classes: in the
quotient Z2 x Gamma x Z2 when a factor contains SO(2), else only those
meeting the reflection conjugators of the two factors.  The recurrence
converts fixed-space Brouwer degrees into coefficients.  The tests keep the
independent witnesses: the finite-group
product by double cosets and by a brute-force orbit partition of the
product of coset spaces, and the inverse of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        d = self.as_dict()
        for cid, c in other.coeffs:
            d[cid] = d.get(cid, 0) + c
        return BurnsideElement.from_dict(self.lattice, d)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.lattice, tuple((cid, -c) for cid, c in self.coeffs))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

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
