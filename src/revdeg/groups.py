"""Finite group machinery: dihedral/cyclic groups, direct products, subgroups.

Groups are stored as explicit multiplication tables over elements indexed
0..order-1 with the identity at index 0.  Everything downstream (conjugacy
classes of subgroups, normalizers, double cosets) works on integer index
arrays, so the heavy paths vectorize with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ENUMERATION_CAP = 10_000


class EnumerationTooLarge(ValueError):
    """Requested subgroup enumeration exceeds the configured order cap."""


class InvalidGroupParameter(ValueError):
    """Bad constructor parameter (e.g. dihedral parameter 0)."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[a, b]`` is the index of the product a*b; index 0 is the identity.
    Instances are immutable and compared by identity.
    """

    name: str
    order: int
    table: np.ndarray
    inverse: np.ndarray
    generators: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, x: int, a: int) -> int:
        """x * a * x^-1."""
        return int(self.table[self.table[x, a], self.inverse[x]])

    def element_orders(self) -> np.ndarray:
        orders = np.zeros(self.order, dtype=np.int64)
        for a in range(self.order):
            k, cur = 1, a
            while cur != 0:
                cur = int(self.table[cur, a])
                k += 1
            orders[a] = k
        return orders


def _finish(name: str, table: np.ndarray, generators: tuple[int, ...]) -> FiniteGroup:
    order = table.shape[0]
    inverse = np.zeros(order, dtype=table.dtype)
    ident = np.nonzero(table == 0)
    inverse[ident[0]] = ident[1]
    return FiniteGroup(name, order, table, inverse, generators)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n with element i representing the i-th power."""
    if n < 1:
        raise InvalidGroupParameter(f"cyclic parameter must be >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    gens = (1,) if n > 1 else ()
    return _finish(f"Z{n}", table.astype(np.int32), gens)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations first (r^0..r^{n-1}), then
    reflections r^t*s at indices n..2n-1."""
    if n < 1:
        raise InvalidGroupParameter(f"dihedral parameter must be >= 1, got {n}")
    order = 2 * n
    idx = np.arange(order)
    rot = idx % n
    is_refl = idx >= n
    table = np.zeros((order, order), dtype=np.int32)
    a_rot, a_ref = rot[:, None], is_refl[:, None]
    b_rot, b_ref = rot[None, :], is_refl[None, :]
    # r^a r^b = r^{a+b}; r^a (r^b s) = r^{a+b} s; (r^a s) r^b = r^{a-b} s;
    # (r^a s)(r^b s) = r^{a-b}
    signed = np.where(a_ref, (a_rot - b_rot) % n, (a_rot + b_rot) % n)
    refl_out = a_ref ^ b_ref
    table = signed + np.where(refl_out, n, 0)
    gens = (1, n) if n > 1 else (n,)
    return _finish(f"D{n}", table.astype(np.int32), gens)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element index = index(a-part)*|b| + index(b-part)."""
    nb = b.order
    order = a.order * nb
    ia = np.arange(order) // nb
    ib = np.arange(order) % nb
    table = np.empty((order, order), dtype=np.int32)
    bt = b.table[ib].astype(np.int32)  # (order, nb)
    for row in range(order):
        table[row] = a.table[ia[row], ia].astype(np.int32) * nb + bt[row, ib]
    gens = tuple(g * nb for g in a.generators) + tuple(b.generators)
    return _finish(f"{a.name}x{b.name}", table, gens)


def check_group_axioms(g: FiniteGroup) -> None:
    """Raise AssertionError unless the table is a group with identity 0."""
    assert g.table.shape == (g.order, g.order)
    assert np.array_equal(g.table[0], np.arange(g.order))
    assert np.array_equal(g.table[:, 0], np.arange(g.order))
    assert np.all(g.table[np.arange(g.order), g.inverse] == 0)
    # associativity on a random sample (full check is cubic)
    rng = np.random.default_rng(0)
    triples = rng.integers(0, g.order, size=(min(4096, g.order ** 2), 3))
    lhs = g.table[g.table[triples[:, 0], triples[:, 1]], triples[:, 2]]
    rhs = g.table[triples[:, 0], g.table[triples[:, 1], triples[:, 2]]]
    assert np.array_equal(lhs, rhs)


# -- subgroups ---------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of ``group`` as a sorted tuple of element indices."""

    group: FiniteGroup
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def contains(self, other: "SubgroupHandle") -> bool:
        return set(other.members) <= set(self.members)


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups."""

    representative: SubgroupHandle
    class_id: int
    weyl_order: int
    n_conjugates: int
    name: str


def closure(g: FiniteGroup, seed) -> SubgroupHandle:
    """Subgroup generated by ``seed`` (iterable of element indices)."""
    members = np.unique(np.asarray(list(seed) + [0], dtype=np.int64))
    while True:
        prods = np.unique(g.table[np.ix_(members, members)])
        if prods.size == len(members):
            break
        members = prods
    return SubgroupHandle(g, tuple(int(x) for x in members))


def conjugate_members(g: FiniteGroup, x: int, members) -> np.ndarray:
    m = np.asarray(members, dtype=np.int64)
    return np.sort(g.table[g.table[x, m], g.inverse[x]])


def orbit_walk(g: FiniteGroup, starts):
    """Distinct conjugates under g of the sorted member tuples ``starts``,
    breadth first by g's generators, each yielded when first reached.  Lazy,
    so ``target in orbit_walk(...)`` stops at the first match."""
    gens = g.generators if g.generators else (0,)
    frontier = list(dict.fromkeys(starts))
    seen = set(frontier)
    yield from frontier
    while frontier:
        nxt = []
        for mem in frontier:
            for x in gens:
                c = tuple(conjugate_members(g, x, mem).tolist())
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    yield c
        frontier = nxt


def subgroup_conjugates(g: FiniteGroup, h: SubgroupHandle) -> list[tuple[int, ...]]:
    """All distinct conjugates of h, as sorted member tuples."""
    return sorted(orbit_walk(g, [tuple(h.members)]))


def _right_coset_least(g: FiniteGroup, h_members) -> np.ndarray:
    """least[y] = the least element of the right coset Hy, for every y in g."""
    h = np.asarray(h_members, dtype=np.int64)
    if len(h) ** 2 <= g.order:
        # few rows: a running minimum of the rows h*y, one per element of H
        least = g.table[h[0]].copy()
        for a in h[1:]:
            np.minimum(least, g.table[a], out=least)
        return least
    # few cosets: fill each coset from its least element
    least = np.full(g.order, -1, dtype=np.int64)
    for y in range(g.order):
        if least[y] < 0:
            least[g.table[h, y]] = y
    return least


def normalizer(g: FiniteGroup, h: SubgroupHandle) -> SubgroupHandle:
    """{x : xHx^-1 = H}.  N(H) is a union of right cosets Hx, so one x per
    coset is tested; xHx^-1 has |H| elements, so inside H means equal to H."""
    m = np.asarray(h.members, dtype=np.int64)
    in_h = np.zeros(g.order, dtype=bool)
    in_h[m] = True
    least = _right_coset_least(g, m)
    reps = np.flatnonzero(least == np.arange(g.order))
    conj = g.table[g.table[reps[:, None], m], g.inverse[reps][:, None]]
    normal = np.zeros(g.order, dtype=bool)
    normal[reps[in_h[conj].all(axis=1)]] = True
    return SubgroupHandle(g, tuple(np.flatnonzero(normal[least]).tolist()))


def weyl_order(g: FiniteGroup, h: SubgroupHandle) -> int:
    n = normalizer(g, h)
    q, r = divmod(len(n), len(h))
    assert r == 0
    return q


def is_conjugate(g: FiniteGroup, h1: SubgroupHandle, h2: SubgroupHandle) -> bool:
    if len(h1) != len(h2):
        return False
    return tuple(h2.members) in orbit_walk(g, [tuple(h1.members)])


def containment_count(g: FiniteGroup, h: SubgroupHandle, kclass: SubgroupClass) -> int:
    """Number of conjugates of kclass's representative that contain h."""
    hset = set(h.members)
    return sum(1 for c in subgroup_conjugates(g, kclass.representative)
               if hset <= set(c))


def all_subgroups(g: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
    """Every subgroup of g, by bottom-up closure from cyclic subgroups."""
    if g.order > cap:
        raise EnumerationTooLarge(
            f"group order {g.order} exceeds enumeration cap {cap}")
    found: set[tuple[int, ...]] = set()
    cyclics = set()
    for a in range(g.order):
        cyclics.add(closure(g, [a]).members)
    found |= cyclics
    frontier = set(cyclics)
    while frontier:
        new: set[tuple[int, ...]] = set()
        for mem in frontier:
            mset = set(mem)
            for c in cyclics:
                if set(c) <= mset:
                    continue
                ext = closure(g, mem + c).members
                if ext not in found:
                    new.add(ext)
        found |= new
        frontier = new
    return sorted(found, key=lambda m: (len(m), m))


def subgroup_classes(g: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP,
                     names: dict[tuple[int, ...], str] | None = None) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups, ordered by (order, lex-min representative)."""
    subs = all_subgroups(g, cap)
    remaining = set(subs)
    classes = []
    for mem in subs:  # subs is sorted, so representatives are lex-minimal
        if mem not in remaining:
            continue
        conjs = subgroup_conjugates(g, SubgroupHandle(g, mem))
        for c in conjs:
            remaining.discard(c)
        classes.append((mem, conjs))
    classes.sort(key=lambda t: (len(t[0]), t[0]))
    out = []
    for cid, (mem, conjs) in enumerate(classes):
        h = SubgroupHandle(g, mem)
        w = weyl_order(g, h)
        name = names.get(mem) if names else None
        out.append(SubgroupClass(h, cid, w, len(conjs),
                                 name or f"o{len(mem)}c{cid}"))
    return out


# -- double cosets -----------------------------------------------------------


def double_cosets(g: FiniteGroup, h_members, k_members) -> list[int]:
    """Representatives of H\\g/K, each the least element of its double coset,
    in increasing order.  HxK is the union of the right cosets Hy, y in xK,
    so right cosets (by their least elements) are marked, not elements."""
    k = np.asarray(k_members, dtype=np.int64)
    least = _right_coset_least(g, h_members)
    done = np.zeros(g.order, dtype=bool)
    reps = []
    for x in np.flatnonzero(least == np.arange(g.order)).tolist():
        if not done[x]:
            done[least[g.table[x, k]]] = True
            reps.append(x)
    return reps
