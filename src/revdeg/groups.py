"""Finite group machinery: dihedral/cyclic groups, direct products, subgroups.

Elements are indexed 0..order-1 with the identity at index 0.  Two kinds of
group share one interface: ``mul`` and ``conjugate`` on ints or index
arrays (broadcast like numpy), ``prepare`` for an operand used in many
products, an ``inverse`` array, ``generators``, and the conjugations by the
generators stacked in one read-only int32 table of shape (len(generators),
order), ``gen_conjugation_table``, whose row i is the permutation
y -> x y x^-1 for x = generators[i]; it is the one store of them.  Orbit
walks conjugate by the generators over and over, so they read the table
(``conjugate_members`` with x=None) in one gather per round.

- ``FiniteGroup`` keeps an explicit multiplication table.  The small groups
  (Gamma, Gamma x Z2, the groups of the tests) are built this way.
- ``ProductGroup`` is a truncation group D_M x b (b = Gamma x Z2) with no
  table of D_M or of the product: it splits each index into its two factor
  parts, multiplies the b-parts through b's table and the D_M-parts by
  index arithmetic with one lookup table of length 7M.  So its memory
  grows with |G|, not with |G|^2 or (2M)^2.  Its ``conjugators`` solves
  x a x^-1 = b factor by factor.

A subgroup is the sorted tuple of its members' indices.  Everything
downstream (conjugacy classes of subgroups, normalizers, double cosets)
works on integer index arrays through that interface, so the heavy
paths vectorize with numpy.  The subgroups of Gamma x Z2 are not searched
for: Gamma is dihedral or cyclic, so they are written down in closed form
by Goursat's lemma (gamma_z2_subgroups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    gen_conjugation_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "gen_conjugation_table", _gen_conjugations(self))

    def mul(self, a, b):
        """a*b for element indices or index arrays."""
        return self.table[a, b]

    def conjugate(self, x, a):
        """x * a * x^-1."""
        return self.table[self.table[x, a], self.inverse[x]]

    def prepare(self, a):
        """An operand of many ``mul`` calls; the table reads indices as they are."""
        return np.asarray(a)


def _gen_conjugations(g) -> np.ndarray:
    """g's read-only int32 table of the conjugations by its generators.  The
    rows are filled one at a time, so no temporary of the table's size is
    formed."""
    idx = np.arange(g.order)
    table = np.empty((len(g.generators), g.order), dtype=np.int32)
    for row, x in zip(table, g.generators):
        row[:] = g.conjugate(x, idx)
    table.setflags(write=False)
    return table


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
    idx = np.arange(order, dtype=np.int32)
    rot = idx % n
    is_refl = idx >= n
    a_rot, a_ref = rot[:, None], is_refl[:, None]
    b_rot, b_ref = rot[None, :], is_refl[None, :]
    # r^a r^b = r^{a+b}; r^a (r^b s) = r^{a+b} s; (r^a s) r^b = r^{a-b} s;
    # (r^a s)(r^b s) = r^{a-b}
    signed = np.where(a_ref, (a_rot - b_rot) % n, (a_rot + b_rot) % n)
    table = np.where(a_ref ^ b_ref, signed + n, signed)
    gens = (1, n) if n > 1 else (n,)
    return _finish(f"D{n}", table, gens)


def make_gamma(kind: str, n: int) -> FiniteGroup:
    """Gamma = D_n (kind "dihedral") or Z_n (kind "cyclic")."""
    if kind == "dihedral":
        return make_dihedral(n)
    if kind == "cyclic":
        return make_cyclic(n)
    raise InvalidGroupParameter(f"group kind must be dihedral or cyclic, got {kind!r}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element index = index(a-part)*|b| + index(b-part)."""
    nb = b.order
    ia, ib = np.divmod(np.arange(a.order * nb), nb)
    table = a.table[ia[:, None], ia] * nb + b.table[ib[:, None], ib]
    gens = tuple(g * nb for g in a.generators) + tuple(b.generators)
    return _finish(f"{a.name}x{b.name}", table.astype(np.int32), gens)


class _Parts(NamedTuple):
    """An index array split into its D_M- and b-parts, with the D_M arrays
    that ProductGroup.mul reads gathered at its D_M-parts
    (ProductGroup.prepare)."""

    a: np.ndarray
    b: np.ndarray
    pos: np.ndarray
    sign: np.ndarray


class ProductGroup:
    """The truncation group D_M x b, with direct_product(make_dihedral(M),
    b)'s indexing and generators, and no table of D_M or of the product.
    An index splits into its D_M-part (r^t at t, r^t s at M + t) and its
    b-part.  The b-parts multiply and conjugate through b's tables; the
    D_M-parts by index arithmetic on arrays of length 2M and one lookup
    table of length 7M, so no array is larger than O(|G|).  Conjugation by
    the generators is precomputed, as for FiniteGroup, in one read-only
    int32 table of shape (len(generators), order)
    (``gen_conjugation_table``).  Instances are compared by identity."""

    def __init__(self, m: int, b: FiniteGroup):
        if m < 1:
            raise InvalidGroupParameter(f"dihedral parameter must be >= 1, got {m}")
        nb = b.order
        self.name = f"D{m}x{b.name}"
        self.order = 2 * m * nb
        self.generators = tuple(g * nb for g in ((1, m) if m > 1 else (m,))) + tuple(b.generators)
        self._nb = nb
        d = np.arange(2 * m)
        refl = (d >= m).astype(np.int64)
        t = d % m
        # an integer offset j stands for the rotation r^(j mod M) when j < 2M
        # or j >= 6M, and for the reflection r^(j mod M) s when 2M <= j < 6M;
        # numpy reads a negative offset from the end, so it stands for a
        # rotation too.  The table maps an offset to its D_M-part, premultiplied
        # by |b|.
        j = np.arange(7 * m)
        self._lut = ((j % m + m * ((j >= 2 * m) & (j < 6 * m))) * nb).astype(np.int32)
        # (r^t s^e)(r^u s^f) = r^(t + (-1)^e u) s^(e+f): with pos = t + 3Mf,
        # pos[a] + sign[a] * pos[b] lies in [-M + 1, 2M - 2] for a rotation
        # and in [2M + 1, 5M - 2] for a reflection
        self._sign, self._pos = 1 - 2 * refl, t + 3 * m * refl
        # (r^u s^e)(r^t s^f)(r^u s^e)^-1 = r^((-1)^e t + 2uf) s^f:
        # sign[x] * a + twist[x] * refl[a] is (-1)^e t, in [-M + 1, M - 1],
        # for a rotation a = t and (-1)^e t + 2u + 3M, in [2M + 1, 6M - 3],
        # for a reflection a = M + t
        self._twist, self._refl = 2 * t + 3 * m - m * self._sign, refl
        ia, ib = np.divmod(np.arange(self.order), nb)
        inv_a = np.where(d >= m, d, -d % m).astype(np.int32)
        self.inverse = inv_a[ia] * nb + b.inverse[ib]
        self._mul_b, self._conj_b = b.table, b.conjugate(np.arange(nb)[:, None], np.arange(nb))
        self.gen_conjugation_table = _gen_conjugations(self)

    def _split(self, a):
        return a[:2] if isinstance(a, _Parts) else divmod(a, self._nb)

    def prepare(self, a):
        """An operand of many ``mul`` calls, split into its parts once."""
        a1, a2 = divmod(np.asarray(a, dtype=np.int64), self._nb)
        return _Parts(a1, a2, self._pos[a1], self._sign[a1])

    def mul(self, a, b):
        """a*b for element indices, index arrays or prepared operands."""
        if isinstance(a, _Parts):
            pa, sa, a2 = a.pos, a.sign, a.b
        else:
            a1, a2 = divmod(a, self._nb)
            pa, sa = self._pos[a1], self._sign[a1]
        if isinstance(b, _Parts):
            pb, b2 = b.pos, b.b
        else:
            b1, b2 = divmod(b, self._nb)
            pb = self._pos[b1]
        return self._lut[pa + sa * pb] + self._mul_b[a2, b2]

    def conjugate(self, x, a):
        """x * a * x^-1."""
        (x1, x2), (a1, a2) = self._split(x), self._split(a)
        off = self._sign[x1] * a1 + self._twist[x1] * self._refl[a1]
        return self._lut[off] + self._conj_b[x2, a2]

    def conjugators(self, a, b) -> np.ndarray:
        """Every x with x y x^-1 in b for some y in a (a and b elements or
        index arrays), in increasing order.  The D_M-parts of x that
        conjugate some y's D_M-part into a D_M-part of b are found by the
        closed form over every D_M-part at once; only those, paired with
        every b-part, are conjugated, so no conjugate of all of the group
        is formed."""
        nb = self._nb
        a1, a2 = divmod(np.atleast_1d(np.asarray(a, dtype=np.int64)), nb)
        b = np.atleast_1d(np.asarray(b, dtype=np.int64))
        in_b = np.zeros(self.order, dtype=bool)
        in_b[b] = True
        in_b1 = np.zeros(self.order, dtype=bool)  # b's D_M-parts, b-part 0
        in_b1[b - b % nb] = True
        # cols[x1, i] = x1 a1[i] x1^-1 for every D_M-part x1, premultiplied
        cols = self._lut[self._sign[:, None] * a1 + self._twist[:, None] * self._refl[a1]]
        x1, ai = np.nonzero(in_b1[cols])
        conj = cols[x1, ai][:, None] + self._conj_b[:, a2[ai]].T
        xs = x1[:, None] * nb + np.arange(nb)
        out = np.zeros(self.order, dtype=bool)
        out[xs[in_b[conj]]] = True
        return np.flatnonzero(out)


Group = FiniteGroup | ProductGroup


# -- subgroups ---------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups.  ``conjugates`` holds every member of
    the class as a sorted member tuple, in increasing order, so a class can
    be found by looking up any of its subgroups."""

    representative: tuple[int, ...]
    class_id: int
    weyl_order: int
    conjugates: tuple[tuple[int, ...], ...]
    name: str

    @property
    def n_conjugates(self) -> int:
        return len(self.conjugates)


def closure(g: Group, seed) -> tuple[int, ...]:
    """Subgroup generated by ``seed`` (iterable of element indices), as
    sorted members.

    The least seed element outside the subgroup so far joins the generators
    with its repeated squares (so every power of it is a product of at most
    log2 of its order of them), and the subgroup grows by right products
    with the generators until it closes, for |<seed>| times the number of
    generators products; no |G|^2 product is formed."""
    seed = np.asarray(list(seed), dtype=np.int64)
    in_h = np.zeros(g.order, dtype=bool)
    in_h[0] = True
    gens: list[int] = []
    while (rest := seed[~in_h[seed]]).size:
        new = [int(rest[0])]
        while True:
            sq = int(g.mul(new[-1], new[-1]))
            if in_h[sq] or sq in new:
                break
            new.append(sq)
        gens += new
        # the subgroup so far is closed under the earlier generators
        frontier, ops = np.flatnonzero(in_h), g.prepare(new)
        while frontier.size:
            fresh = np.zeros(g.order, dtype=bool)
            fresh[g.mul(frontier[:, None], ops)] = True
            fresh &= ~in_h
            in_h |= fresh
            frontier, ops = np.flatnonzero(fresh), g.prepare(gens)
    return tuple(np.flatnonzero(in_h).tolist())


def conjugate_members(g: Group, x, members) -> np.ndarray:
    """x * members * x^-1, sorted along the last axis (a row per member set);
    x is an element, or an index array that broadcasts against members (a
    column of elements gives a row per element).
    x=None conjugates by every generator of g at once, with a new leading
    axis of one block per generator, in the order of g.generators: one
    gather from g.gen_conjugation_table and one in-place sort."""
    if x is not None:
        return np.sort(g.conjugate(x, np.asarray(members, dtype=np.int64)))
    out = np.take(g.gen_conjugation_table, members, axis=1)
    out.sort(axis=-1)
    return out


def orbit_walk(g: Group, start) -> np.ndarray:
    """Distinct conjugates under g of one member set, as the sorted-member
    rows of an int32 array, row 0 the sorted start, the rest in the order
    reached breadth first by g's generators.  Each frontier is conjugated by
    every generator in one conjugate_members call, whose rows come one block
    per generator in generator order, and a conjugate is new when the bytes
    of its row are, so no row becomes a tuple."""
    frontier = np.sort(np.asarray(start, dtype=np.int32))[None, :]
    k = frontier.shape[1]
    void = f"V{frontier.itemsize * k}"
    seen = {frontier.tobytes()}
    found = [frontier]
    while len(frontier):
        block = conjugate_members(g, None, frontier).reshape(-1, k)
        fresh = []
        for i, key in enumerate(block.view(void).ravel().tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        frontier = block[fresh]
        found.append(frontier)
    return np.concatenate(found)


def subgroup_conjugates(g: Group, h) -> list[tuple[int, ...]]:
    """All distinct conjugates of h (members), as sorted member tuples."""
    return sorted(map(tuple, orbit_walk(g, h).tolist()))


def _right_coset_least(g: Group, h_members) -> np.ndarray:
    """least[y] = the least element of the right coset Hy, for every y in g."""
    h = np.asarray(h_members, dtype=np.int64)
    if len(h) ** 2 <= g.order:
        # few rows: a running minimum of the rows h*y, one per element of H
        ys = g.prepare(np.arange(g.order))
        least = np.array(g.mul(int(h[0]), ys), dtype=np.int64)
        for a in h[1:].tolist():
            np.minimum(least, g.mul(a, ys), out=least)
        return least
    # few cosets: fill each coset from its least element
    hs = g.prepare(h)
    least = np.full(g.order, -1, dtype=np.int64)
    y = 0
    while least[y] < 0:
        least[g.mul(hs, y)] = y
        y += int(np.argmax(least[y:] < 0))  # the next unfilled coset, if any
    return least


def normalizer(g: Group, h) -> tuple[int, ...]:
    """{x : xHx^-1 = H} for H given by its members, as sorted members.
    N(H) is a union of right cosets Hx, so one x per coset is tested;
    xHx^-1 has |H| elements, so inside H means equal to H."""
    m = np.asarray(h, dtype=np.int64)
    in_h = np.zeros(g.order, dtype=bool)
    in_h[m] = True
    least = _right_coset_least(g, m)
    reps = np.flatnonzero(least == np.arange(g.order))
    conj = g.conjugate(reps[:, None], m)
    normal = np.zeros(g.order, dtype=bool)
    normal[reps[in_h[conj].all(axis=1)]] = True
    return tuple(np.flatnonzero(normal[least]).tolist())


def weyl_order(g: Group, h) -> int:
    """|N(H)| / |H| for H given by its members."""
    n = normalizer(g, h)
    q, r = divmod(len(n), len(h))
    assert r == 0
    return q


def gamma_z2_subgroups(kind: str, n: int) -> list[tuple[int, ...]]:
    """Every subgroup of Gamma x Z2, Gamma = D_n or Z_n, as sorted members
    in direct_product(Gamma, Z2) indexing ((h, z) at 2h + z), sorted by
    (order, members).

    The subgroups of Z_n are Z_d = <r^(n/d)> for d | n; D_n adds
    D_d^(r) = <r^(n/d), r^r s> for 0 <= r < n/d.  By Goursat's lemma over
    Z2, each subgroup H of Gamma gives H x 1, H x Z2 and, for each index-2
    subgroup K of H, the graph {(h, [h not in K])}.  The index-2 subgroups
    are Z_(d/2) of Z_d for d even, and Z_d of D_d^(r) together with, for d
    even, D_(d/2)^(r) and D_(d/2)^(r + n/d)."""
    if kind not in ("dihedral", "cyclic") or n < 1:
        raise InvalidGroupParameter(f"Gamma must be D_n or Z_n, n >= 1; got {kind!r}, {n}")

    def refl(first, step):  # the reflections r^t s, t = first, first + step, ...
        return tuple(range(n + first, 2 * n, step))

    pairs = []  # (H, its index-2 subgroups), as sorted members of Gamma
    for d in (d for d in range(1, n + 1) if n % d == 0):
        step = n // d
        rot = tuple(range(0, n, step))  # Z_d
        halves = [rot[::2]] if d % 2 == 0 else []
        pairs.append((rot, halves))
        for r in range(step if kind == "dihedral" else 0):
            pairs.append((rot + refl(r, step), [rot] + [
                h + refl(r + q, 2 * step) for h in halves for q in (0, step)]))
    subs = []
    for h, ks in pairs:
        subs += [tuple(2 * x for x in h), tuple(y for x in h for y in (2 * x, 2 * x + 1))]
        subs += [tuple(2 * x + (x not in k) for x in h) for k in ks]
    return sorted(subs, key=lambda m: (len(m), m))


def subgroup_classes(g: Group, subgroups) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups, given every subgroup of g as sorted
    members, ordered by (order, lex-min representative)."""
    subs = sorted(subgroups, key=lambda m: (len(m), m))
    remaining = set(subs)
    out = []
    for mem in subs:  # sorted, so a class's first subgroup is its lex-min
        if mem not in remaining:
            continue
        cid = len(out)
        conjs = tuple(subgroup_conjugates(g, mem))
        remaining.difference_update(conjs)
        out.append(SubgroupClass(mem, cid, weyl_order(g, mem), conjs, f"o{len(mem)}c{cid}"))
    return out


# -- double cosets -----------------------------------------------------------


def double_cosets(g: Group, h_members, k_members, meeting=None) -> list[int]:
    """Representatives of H\\g/K, each the least element of its double coset,
    in increasing order; with ``meeting`` (element indices), only the double
    cosets that hold one of those elements.

    Each new double coset HxK is spread into labels that it covers exactly,
    and a later x whose own label is covered is skipped.  The labels are the
    right cosets Hy (by their least elements), HxK being the union of Hy
    over y in xK; or, for a few meeting elements and |H||K| <= |g|, the
    elements h x k themselves, which skips labelling all of g.  The least
    label of HxK is its least element.
    """
    k = g.prepare(k_members)
    if meeting is None or len(h_members) * len(k_members) > g.order:
        label = _right_coset_least(g, h_members)
        spread = lambda x: label[g.mul(x, k)]
    else:
        label, hs = None, g.prepare(h_members)  # each element is its own label
        spread = lambda x: g.mul(g.mul(hs, x)[:, None], k)
    if meeting is None:
        xs = np.flatnonzero(label == np.arange(g.order))
    else:
        in_meeting = np.zeros(g.order, dtype=bool)
        in_meeting[np.asarray(meeting, dtype=np.int64)] = True
        xs = np.flatnonzero(in_meeting)
    done = np.zeros(g.order, dtype=bool)
    reps = []
    for x in xs.tolist():
        if not done[x if label is None else label[x]]:
            covered = spread(x)
            done[covered] = True
            reps.append(int(covered.min()))
    return sorted(reps)


def coset_intersections(g: Group, h_members, k_members, xs):
    """H ∩ xKx^-1, as sorted members, for each double-coset representative x
    in xs, in their order: the one double-coset kernel of the class products,
    which choose the representatives.  K is conjugated by every x in one
    call."""
    in_h = np.zeros(g.order, dtype=bool)
    in_h[np.asarray(h_members, dtype=np.int64)] = True
    xs = np.asarray(xs, dtype=np.int64)
    for kc in conjugate_members(g, xs[:, None], k_members):
        yield kc[in_h[kc]]
