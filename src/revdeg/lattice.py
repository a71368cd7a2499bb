"""Conjugacy classes of closed subgroups of O(2) x Gamma x Z2, realized
through finite dihedral truncations D_M x Gamma x Z2.

A class is stored level-independently as a membership rule: which Gamma x Z2
elements pair with all rotations / all reflections (full O(2)- or SO(2)-type
classes), and which pair with finitely many rotation/reflection angles
(dihedral- or cyclic-fold classes, angles as exact Fractions of a full turn).
Truncating at level M maps angle q to index q*M in D_M; lifting inverts this
and promotes folds that track M to SO(2)/O(2).

Conjugacy over the full group is conjugacy in the truncation extended by the
half-step rotation twist (the normalizer of D_M in O(2) is D_2M), and every
count is computed at the working level M and re-verified at 2M.

Each interned class keeps its full-group orbit once per level, as a sorted,
read-only int32 array with one row of members per conjugate; row 0 (the
lex-min conjugate) is the class's representative at that level.  An index
from each row's bytes to the class id finds the class of any member set.
The walk that builds an orbit also gives the class's Weyl order at that
level, by orbit-stabilizer, so no normalizer is formed for it.

Every member set met by the engine goes through lookup, which probes the
index first.  The level check (a fold too close to the level, or mixed
fibres under a full fold: TruncationInstability) runs without Fractions, on
a miss or on a hit whose class is a finite fold above level // 4; a hit
needs nothing else, since rows at the level the class was interned at passed
lift, rows truncated to the other level have whole fibres, and both refusals
are invariant under conjugation.  lift builds Fractions only for a new
class's representative.

Products of classes count double cosets.  When a factor has a finite
O(2)-part, only the double cosets whose intersection holds a reflection can
contribute (the others are cyclic folds, with infinite Weyl group), and only
those are enumerated, from the solutions of x k x^-1 = h for reflections h
and k of the factors.  When both factors contain SO(2), every double coset
is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import (
    FiniteGroup,
    ProductGroup,
    SubgroupHandle,
    conjugate_members,
    direct_product,
    double_cosets,
    gamma_z2_subgroups,
    make_cyclic,
    make_dihedral,
    make_gamma,
    normalizer,
    orbit_walk,
    subgroup_classes,
    subgroup_conjugates,
)
from .names import names_for_gamma_z2


class TruncationInstability(RuntimeError):
    """A count or class disagreed between levels M and 2M."""


class InadmissibleLevel(ValueError):
    """Truncation level not divisible by a required fold."""


class ClassEscape(RuntimeError):
    """A product produced a class outside the working set (extend disabled)."""

    def __init__(self, labels):
        super().__init__(f"product escapes working set at classes: {labels}")
        self.labels = labels


@dataclass(frozen=True)
class O2Desc:
    """Projection of a class to the O(2) factor.

    kind: "O2" (all of O(2)), "SO2", "D" (dihedral fold), "Z" (cyclic fold).
    Cyclic folds have infinite Weyl group and occur only as constituents.
    """

    kind: str
    fold: int = 0

    def label(self) -> str:
        if self.kind == "O2":
            return "O(2)"
        if self.kind == "SO2":
            return "SO(2)"
        if self.kind == "D":
            return f"D{self.fold}"
        return "1" if self.fold == 1 else f"Z{self.fold}"


@dataclass(frozen=True)
class AmalgamData:
    """Level-independent membership rule for a subgroup of O(2) x Gamma x Z2.

    rot_all/refl_all: gamma-z2 indices paired with every rotation/reflection.
    rot_fin/refl_fin: (angle, gamma-z2 index) pairs, angle in [0,1) a Fraction
    of a full turn (for reflections, of the dihedral index range).
    """

    o2: O2Desc
    rot_all: tuple[int, ...]
    refl_all: tuple[int, ...]
    rot_fin: tuple[tuple[Fraction, int], ...]
    refl_fin: tuple[tuple[Fraction, int], ...]

    def truncated_order(self, m: int) -> int:
        n = len(self.rot_all) * m + len(self.refl_all) * m
        return n + len(self.rot_fin) + len(self.refl_fin)


def trunc_group(gamma_z2: FiniteGroup, m: int) -> ProductGroup:
    """D_M x (Gamma x Z2); o2 index = idx // |Gamma x Z2| (rotations < M).
    Multiplied by index arithmetic, so no |G|^2 table is built."""
    return ProductGroup(make_dihedral(m), gamma_z2)


def row_order(rows: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows of a 2-D array of non-negative
    int32 values lexicographically: big-endian bytes of non-negative ints
    order as the ints do, so it is one argsort of each row's bytes."""
    return np.argsort(rows.astype(">i4").view(f"V{4 * rows.shape[1]}").ravel())


class ClassLattice:
    """Working set of subgroup classes with the level-M / level-2M protocol,
    for Gamma = D_n (kind "dihedral") or Z_n (kind "cyclic").

    Owns the truncated groups at both levels, interns classes by full-group
    conjugacy, and caches Weyl orders, containment counts and the order
    relation, each verified stable across the two levels.
    """

    def __init__(self, kind: str, n: int, base_level: int):
        self.gamma_z2 = direct_product(make_gamma(kind, n), make_cyclic(2))
        self.ng = self.gamma_z2.order
        if base_level % 4 != 0:
            raise InadmissibleLevel(f"base level {base_level} must be divisible by 4")
        self.m_lo = base_level
        self.m_hi = 2 * base_level
        self.group_lo = trunc_group(self.gamma_z2, self.m_lo)
        self.group_hi = trunc_group(self.gamma_z2, self.m_hi)
        self._finite_classes = subgroup_classes(self.gamma_z2, gamma_z2_subgroups(kind, n))
        # every subgroup of Gamma x Z2, as sorted members -> its class id
        self._finite_class_of = {conj: c.class_id for c in self._finite_classes
                                 for conj in c.conjugates}
        self._finite_names = names_for_gamma_z2(
            n if kind == "dihedral" else None,
            [c.representative.members for c in self._finite_classes])
        self.classes: list[AmalgamData] = []
        self.labels: list[str] = []
        # (class id, level) -> the class's full-group orbit at level, as
        # conjugates_full returns it; row 0 is the representative
        self._orbits: dict[tuple[int, int], np.ndarray] = {}
        # (class id, level) -> Weyl order in the truncation at level
        self._level_weyl: dict[tuple[int, int], int] = {}
        # (class id, level) -> one reflection per conjugacy class of
        # reflections inside the representative
        self._refl_reps: dict[tuple[int, int], list[int]] = {}
        self._weyl: list[int | None] = []   # None marks infinite
        self._by_label: dict[str, int] = {}
        # the bytes of every orbit row -> class id, per level (_find_class)
        self._class_of: dict[int, dict[bytes, int]] = {self.m_lo: {}, self.m_hi: {}}
        self._n_cache: dict[tuple[int, int], int] = {}
        self._angle_cache: dict[int, list[Fraction]] = {}
        self._mul_cache: dict[tuple[int, int], dict[int, int]] = {}
        self.escape_log: list[str] = []
        # the full group is always class 0
        self.ensure_handle(tuple(range(self.group_lo.order)), self.m_lo)

    # -- element decoding ----------------------------------------------------

    def group_at(self, level: int) -> ProductGroup:
        if level == self.m_lo:
            return self.group_lo
        if level == self.m_hi:
            return self.group_hi
        raise InadmissibleLevel(f"unsupported level {level}")

    def encode(self, t: int, refl: bool, ge: int, level: int) -> int:
        return ((t % level) + (level if refl else 0)) * self.ng + ge

    # -- lift / truncate -----------------------------------------------------

    def lift(self, members, level: int) -> AmalgamData:
        """Goursat data of a truncated subgroup, promoting folds that fill D_M;
        an unstable truncation is refused by _level_check."""
        o2 = self._level_check(members, level)
        o2_idx, ge = np.divmod(np.asarray(members, dtype=np.int64), self.ng)
        refl = o2_idx >= level
        if o2.kind in ("O2", "SO2"):
            # whole fibres: the Gamma x Z2 indices met at every angle
            rot_all, refl_all = (
                tuple(np.flatnonzero(np.bincount(ge[mask], minlength=self.ng) == level).tolist())
                for mask in (~refl, refl))
            return AmalgamData(o2, rot_all, refl_all, (), ())
        t = o2_idx % level
        angles = self._angles(level)
        parts = []
        for mask in (~refl, refl):
            t_part, ge_part = t[mask], ge[mask]
            # one denominator, so (t, ge) order is (Fraction(t, level), ge) order
            order = np.lexsort((ge_part, t_part))
            parts.append(tuple(zip([angles[i] for i in t_part[order].tolist()],
                                   ge_part[order].tolist())))
        return AmalgamData(o2, (), (), *parts)

    def _level_check(self, members, level: int) -> O2Desc:
        """The O(2)-part of a truncated subgroup at level, with no Fractions.
        Refuses a fold too close to the level (_check_fold), then, for a
        fold that fills D_M, fibres over Gamma x Z2 holding some but not
        all angles."""
        o2_idx, ge = np.divmod(np.asarray(members, dtype=np.int64), self.ng)
        refl = o2_idx >= level
        # a rotation's O(2) index is its angle index
        d = int(np.count_nonzero(np.bincount(o2_idx[~refl], minlength=1)))
        has_refl = bool(refl.any())
        if d < level:
            o2 = O2Desc("D", d) if has_refl else O2Desc("Z", d)
            self._check_fold(o2, level)
            return o2
        for mask in (~refl, refl):
            # a fibre over ge holds every angle or finitely many
            counts = np.bincount(ge[mask], minlength=self.ng)
            if np.any((counts > 0) & (counts < level)):
                raise TruncationInstability("mixed full/finite fibers; raise the base level")
        return O2Desc("O2") if has_refl else O2Desc("SO2")

    @staticmethod
    def _check_fold(o2: O2Desc, level: int) -> None:
        """Refuse a finite fold above level // 4: its conjugacy and counts are
        not yet those of O(2) at this level."""
        if o2.kind in ("D", "Z") and o2.fold > level // 4:
            raise TruncationInstability(
                f"fold {o2.fold} too close to truncation level {level}; raise the base level")

    def _angles(self, level: int) -> list[Fraction]:
        """Fraction(t, level) for every rotation index t, built once a level."""
        if level not in self._angle_cache:
            self._angle_cache[level] = [Fraction(t, level) for t in range(level)]
        return self._angle_cache[level]

    def truncate(self, data: AmalgamData, level: int) -> tuple[int, ...]:
        """The members of data's subgroup at level, sorted.  A fibre paired
        with every rotation (reflection) is one arange over the level; a
        finite angle q lies on the level's grid iff q * level is whole."""
        ng = self.ng
        steps = np.arange(level, dtype=np.int64) * ng
        parts = [steps + ge for ge in data.rot_all]
        parts += [steps + (level * ng + ge) for ge in data.refl_all]
        fin = []
        for pairs, refl in ((data.rot_fin, False), (data.refl_fin, True)):
            for q, ge in pairs:
                t = q * level
                if t.denominator != 1:
                    raise InadmissibleLevel(
                        f"level {level} not divisible by fold denominator {q.denominator}")
                fin.append(self.encode(int(t), refl, ge, level))
        parts.append(np.asarray(fin, dtype=np.int64))
        return tuple(np.sort(np.concatenate(parts)).tolist())

    # -- full-group conjugacy ------------------------------------------------

    def half_twist(self, members, level: int) -> np.ndarray:
        """Conjugation by the rotation of half a grid step (an O(2) element
        normalizing D_level): fixes rotations, shifts reflection axes by one.
        Members are a row of indices or an array of rows (the last axis);
        each twisted row is returned sorted."""
        o2, ge = np.divmod(np.asarray(members), self.ng)
        o2 = np.where(o2 >= level, level + (o2 - level + 1) % level, o2)
        return np.sort(o2 * self.ng + ge, axis=-1)

    def conjugates_full(self, members, level: int) -> tuple[np.ndarray, int]:
        """All conjugates of H (the members) under O(2) x Gamma x Z2, as the
        sorted rows of a read-only int32 array, and the Weyl order
        |N(H)|/|H| in the truncation G at level.

        The half twist t normalizes G and t^2 lies in G, so the full orbit is
        the inner orbit O of H under G together with t(O), which is O itself
        when t(H) lies in O.  |O| = |G|/|N(H)| (orbit-stabilizer), and every
        conjugate of H and t(H) have that same normalizer order."""
        g = self.group_at(level)
        inner = orbit_walk(g, members)
        weyl = g.order // (inner.shape[0] * inner.shape[1])
        if (inner == self.half_twist(inner[0], level)).all(axis=1).any():
            rows = inner
        else:
            rows = np.concatenate([inner, self.half_twist(inner, level)])
        rows = rows[row_order(rows)]
        rows.setflags(write=False)
        return rows, weyl

    def is_conjugate_full(self, a, b, level: int) -> bool:
        if len(a) != len(b):
            return False
        row = np.sort(np.asarray(b, dtype=np.int32))
        return bool((self.conjugates_full(a, level)[0] == row).all(axis=1).any())

    # -- class interning -----------------------------------------------------

    def _finite_class_id(self, mem: tuple[int, ...]) -> int:
        """Id of the Gamma x Z2 class holding the subgroup with sorted
        members mem: one lookup among every class's conjugates."""
        cid = self._finite_class_of.get(mem)
        if cid is None:
            raise RuntimeError("projection is not a subgroup of Gamma x Z2")
        return cid

    def finite_class_name(self, mem) -> str:
        mem = tuple(int(v) for v in sorted(mem))
        cid = self._finite_class_id(mem)
        rep = self._finite_classes[cid].representative.members
        return self._finite_names.get(rep, self._finite_classes[cid].name)

    def ensure_handle(self, members, level: int) -> int:
        """Intern the class of a truncated subgroup; returns its class id."""
        cid, _ = self.lookup(members, level)
        if cid is not None:
            return cid
        # new class: canonical representative = lex-min conjugate at each level
        cid = len(self.classes)
        orbit, weyl = self.conjugates_full(members, level)
        data = self.lift(orbit[0], level)
        other = self.m_hi if level == self.m_lo else self.m_lo
        orbit_other, weyl_other = self.conjugates_full(self.truncate(data, other), other)
        self.classes.append(data)
        for lv, rows, w in ((level, orbit, weyl), (other, orbit_other, weyl_other)):
            self._orbits[(cid, lv)] = rows
            self._level_weyl[(cid, lv)] = w
            index = self._class_of[lv]
            # each row's bytes, as _find_class encodes a member set
            for key in rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist():
                index.setdefault(key, cid)  # an earlier class keeps a shared member set
        self._weyl.append(self._weyl_stable(cid))
        label = self._format(cid)
        base, k = label, 2
        while label in self._by_label:
            label = f"{base}#{k}"  # distinct classes sharing printed Goursat data
            k += 1
        if label != base:
            self.escape_log.append(f"label collision: {base}")
        self.labels.append(label)
        self._by_label[label] = cid
        return cid

    def _rep_at(self, cid: int, level: int) -> tuple[int, ...]:
        return tuple(self._rep_array(cid, level).tolist())

    def _rep_array(self, cid: int, level: int) -> np.ndarray:
        """The representative at level: row 0 of the class's orbit."""
        return self._orbits[(cid, level)][0]

    def class_id_by_label(self, label: str) -> int:
        return self._by_label[label]

    # -- Weyl orders, containment counts -------------------------------------

    def _weyl_at(self, cid: int, level: int) -> int:
        """|N(rep)|/|rep| in the truncation at level, from the orbit walk
        that interned the class (conjugates_full)."""
        return self._level_weyl[(cid, level)]

    def _weyl_stable(self, cid: int) -> int | None:
        if self.classes[cid].o2.kind == "Z":
            return None  # cyclic O(2)-part: Weyl group contains SO(2)/fold
        w_lo = self._weyl_at(cid, self.m_lo)
        w_hi = self._weyl_at(cid, self.m_hi)
        if w_lo != w_hi:
            return None
        return w_lo

    def exact_weyl(self, cid: int) -> int | None:
        """|W(S)| in the full O(2) x Gamma x Z2, from the class's AmalgamData
        alone; no truncation level M or 2M enters.  None marks infinite.

        N(S) projects into the O(2)-normalizer of S's O(2)-part, and
        N_O(2)(SO(2)) = N_O(2)(O(2)) = O(2), N_O(2)(D_k) = D_2k:

        - O(2)/SO(2) part: every angle pairs with the same fibres rot_all
          (= R) and refl_all, so (a, b) normalizes S iff b normalizes both
          fibres, for any a in O(2).  |W| = [N' : R], doubled for SO(2),
          whose normalizing reflections lie outside S.
        - dihedral fold k: a rotation moves one reflection axis to angle 0;
          the conjugate lies in D_2k x Gamma x Z2, which then contains the
          whole normalizer, and |W| is a normalizer order in that finite
          group (angles index it at the class's own level 2k).
        - cyclic fold: SO(2) normalizes S, so W is infinite.
        """
        data = self.classes[cid]
        kind = data.o2.kind
        if kind == "Z":
            return None
        k = self.gamma_z2
        if kind in ("O2", "SO2"):
            fibres = [f for f in (data.rot_all, data.refl_all) if f]
            n_prime = set.intersection(
                *(set(normalizer(k, SubgroupHandle(k, f)).members) for f in fibres))
            w = len(n_prime) // len(data.rot_all)
            return 2 * w if kind == "SO2" else w
        level = 2 * data.o2.fold
        g = trunc_group(k, level)
        members = self._axis_zero(data, level)
        return len(normalizer(g, SubgroupHandle(g, members))) // len(members)

    def exact_n_count(self, i: int, j: int) -> int:
        """n(S, L) for S = class i, L = class j: the number of conjugates of L
        containing S, from the two classes' AmalgamData alone, like
        exact_weyl.  Both classes must have finite Weyl group.

        - L of O(2)/SO(2) type: its O(2)-part is normal, so its conjugates are
          its fibre pairs conjugated in Gamma x Z2; S lies in one iff every
          rotation (reflection) of S pairs with a member of the rotation
          (reflection) fibre, which SO(2) leaves empty.
        - L of dihedral fold k: S must be of fold j dividing k (otherwise
          S's angles do not lie on the level-2k grid).  With one axis
          of S at angle 0, a conjugate of L containing S has O(2)-part the
          D_k with an axis at 0, so it is conjugate to L (also rotated to
          axis 0) by N_O(2)(D_k) x Gamma x Z2 = D_2k x Gamma x Z2; count those
          conjugates at level 2k.
        """
        s, l = self.classes[i], self.classes[j]
        k = self.gamma_z2
        if l.o2.kind in ("O2", "SO2"):
            rot = set(s.rot_all) | {ge for _, ge in s.rot_fin}
            refl = set(s.refl_all) | {ge for _, ge in s.refl_fin}
            pairs = {(tuple(sorted(k.conjugate(b, x) for x in l.rot_all)),
                      tuple(sorted(k.conjugate(b, x) for x in l.refl_all)))
                     for b in range(k.order)}
            return sum(1 for r, f in pairs if rot <= set(r) and refl <= set(f))
        if s.o2.kind != "D" or l.o2.fold % s.o2.fold:
            return 0
        level = 2 * l.o2.fold
        g = trunc_group(k, level)
        h = set(self._axis_zero(s, level))
        conjs = subgroup_conjugates(g, SubgroupHandle(g, self._axis_zero(l, level)))
        return sum(1 for c in conjs if h <= set(c))

    def _axis_zero(self, data: AmalgamData, level: int) -> tuple[int, ...]:
        """A dihedral-fold class truncated at level (a multiple of its fold),
        rotated so that its first reflection axis lies at angle 0."""
        q0 = data.refl_fin[0][0]
        members = [self.encode(int(q * level), False, ge, level)
                   for q, ge in data.rot_fin]
        members += [self.encode(int((q - q0) * level), True, ge, level)
                    for q, ge in data.refl_fin]
        return tuple(sorted(members))

    def weyl(self, cid: int) -> int | None:
        return self._weyl[cid]

    def finite_weyl(self, cid: int) -> bool:
        return self._weyl[cid] is not None

    def n_count(self, i: int, j: int) -> int:
        """Number of conjugates of class j's representative containing class i's."""
        key = (i, j)
        if key in self._n_cache:
            return self._n_cache[key]
        counts = [self._n_count_at(i, j, level) for level in (self.m_lo, self.m_hi)]
        if counts[0] != counts[1]:
            raise TruncationInstability(
                f"n({self.labels[i]},{self.labels[j]}) differs between levels: {counts}")
        self._n_cache[key] = counts[0]
        return counts[0]

    def _n_count_at(self, i: int, j: int, level: int) -> int:
        """n_count at one level: the conjugates of class j, as rows of member
        indices, whose members include every member of class i's rep."""
        h = self._rep_array(i, level)
        in_h = np.zeros(self.group_at(level).order, dtype=bool)
        in_h[h] = True
        return int(np.count_nonzero(in_h[self._orbits[(j, level)]].sum(axis=1) == len(h)))

    def leq(self, i: int, j: int) -> bool:
        return i == j or self.n_count(i, j) > 0

    def order_of(self, cid: int, level: int | None = None) -> int:
        return self.classes[cid].truncated_order(level or self.m_lo)

    def sorted_ids(self, ids=None) -> list[int]:
        """Deterministic topological order refining >= (the full group first)."""
        ids = list(range(len(self.classes))) if ids is None else list(ids)
        return sorted(ids, key=lambda c: (-self.order_of(c), self.labels[c]))

    # -- products -------------------------------------------------------------

    def product_classes(self, i: int, j: int, extend: bool = True) -> dict[int, int]:
        """Burnside generator product (H)*(K), H = class i, K = class j, by
        double-coset counting: each double coset HxK adds one to the class of
        H ∩ xKx^-1 when that class has finite Weyl group.  Verified at both
        levels.

        (G) is the unit, so (G)*(K) is (K), or 0 when K's Weyl group is
        infinite, with no coset pass.  Otherwise see _product_at.
        """
        key = (min(i, j), max(i, j))
        if key in self._mul_cache:
            return dict(self._mul_cache[key])
        if 0 in key:
            other = key[1]
            result = {other: 1} if self.finite_weyl(other) else {}
        else:
            results = [self._product_at(i, j, level, extend)
                       for level in (self.m_lo, self.m_hi)]
            if results[0] != results[1]:
                raise TruncationInstability(
                    f"product ({self.labels[i]})*({self.labels[j]}) differs between levels")
            result = results[0]
        self._mul_cache[key] = result
        return dict(result)

    def _product_at(self, i: int, j: int, level: int, extend: bool) -> dict[int, int]:
        """product_classes at one level, visiting the double cosets in
        increasing order of their least elements (classes are interned in
        that order).

        When H or K has a finite O(2)-part, an intersection with no
        reflection (an element whose O(2)-part is a reflection) is a cyclic
        fold, whose Weyl group is infinite, so only the double cosets meeting
        _reflection_conjugators are visited.  When both contain SO(2), so do
        all their intersections, which may have a finite Weyl group with no
        reflection, and every double coset is visited.
        """
        g = self.group_at(level)
        h, k = self._rep_array(i, level), self._rep_array(j, level)
        meeting = None
        if self.classes[i].o2.kind in ("D", "Z") or self.classes[j].o2.kind in ("D", "Z"):
            meeting = self._reflection_conjugators(i, j, level)
        in_h = np.zeros(g.order, dtype=bool)
        in_h[h] = True
        coeffs: dict[int, int] = {}
        for x in double_cosets(g, h, k, meeting):
            kc = conjugate_members(g, x, k)
            inter = kc[in_h[kc]]
            cid, _ = self.lookup(inter, level)
            if cid is None:
                if not extend:
                    raise ClassEscape([self._describe(inter, level)])
                cid = self.ensure_handle(inter, level)
                self.escape_log.append(f"extended working set: {self.labels[cid]}")
            if self.finite_weyl(cid):
                coeffs[cid] = coeffs.get(cid, 0) + 1
        return coeffs

    def _reflection_conjugators(self, i: int, j: int, level: int) -> np.ndarray:
        """Elements x with x k x^-1 = h, for h one reflection from each
        H-class of reflections in H and k one from each K-class in K.  They
        meet every double coset HxK whose intersection H ∩ xKx^-1 holds a
        reflection: if x k' x^-1 = h' with h' = a h a^-1 (a in H) and
        k' = b k b^-1 (b in K), then a^-1 x b lies in HxK and conjugates k
        to h.

        A cyclic fold too close to the level is never looked up on this
        route, so a finite factor whose fold lift would refuse at this level
        is refused here."""
        for c in (i, j):
            self._check_fold(self.classes[c].o2, level)
        return self.group_at(level).conjugators(self._reflection_reps(j, level),
                                                self._reflection_reps(i, level))

    def _reflection_reps(self, cid: int, level: int) -> list[int]:
        """The least element of each conjugacy class, under the
        representative itself, of the reflections in class cid's
        representative at level."""
        key = (cid, level)
        if key not in self._refl_reps:
            g = self.group_at(level)
            rep = self._rep_array(cid, level)
            refl = rep[rep // self.ng >= level]
            todo = np.zeros(g.order, dtype=bool)
            todo[refl] = True
            reps, hs = [], g.prepare(rep)
            while (rest := refl[todo[refl]]).size:
                reps.append(int(rest[0]))
                todo[g.conjugate(hs, reps[-1])] = False
            self._refl_reps[key] = reps
        return self._refl_reps[key]

    def lookup(self, members, level: int) -> tuple[int | None, O2Desc]:
        """The id of the interned class whose orbit at level holds the
        members (any container of ints, in any order), None if there is
        none, and the members' O(2)-part; an unstable truncation is refused
        as lift refuses it.

        The orbit index is probed first.  A miss runs _level_check.  A hit
        refuses exactly when the class is a finite fold above level // 4
        (_check_fold): rows at the level the class was interned at passed
        lift, rows truncate built at the other level have whole fibres, and
        both refusals are invariant under conjugation."""
        cid = self._find_class(members, level)
        if cid is None:
            return None, self._level_check(members, level)
        o2 = self.classes[cid].o2
        self._check_fold(o2, level)
        return cid, o2

    def _find_class(self, members, level: int) -> int | None:
        """Id of the interned class whose orbit at level holds the members,
        by the orbit index alone (lookup adds the level check)."""
        if level not in self._class_of:
            raise InadmissibleLevel(f"unsupported level {level}")
        key = np.sort(np.asarray(members, dtype=np.int32)).tobytes()
        return self._class_of[level].get(key)

    def _describe(self, members, level: int) -> str:
        data = self.lift(members, level)
        return f"{data.o2.label()}-class of order {len(members)} at level {level}"

    # -- printable labels ------------------------------------------------------

    def _format(self, cid: int) -> str:
        data = self.classes[cid]
        g_all = data.truncated_order(self.m_lo) == self.group_lo.order
        if g_all:
            return "(G)"
        k_proj = sorted({ge for ge in data.rot_all} | {ge for ge in data.refl_all}
                        | {ge for _, ge in data.rot_fin} | {ge for _, ge in data.refl_fin})
        k_name = self.finite_class_name(k_proj)
        # R = fiber over the O(2)-identity; Z = fiber over the finite identity
        r_part = sorted(set(data.rot_all) | {ge for q, ge in data.rot_fin if q == 0})
        quotient = len(k_proj) // len(r_part)
        if quotient == 1:
            return f"({data.o2.label()} x {k_name})"
        r_name = self.finite_class_name(r_part)
        z_rot = sorted(q for q, ge in data.rot_fin if ge == 0)
        z_refl = sorted(q for q, ge in data.refl_fin if ge == 0)
        if data.o2.kind in ("O2", "SO2"):
            z_name = "SO(2)" if 0 in data.rot_all else "?"
        elif z_refl:
            z_name = f"D{len(z_rot)}"
        elif len(z_rot) > 1:
            z_name = f"Z{len(z_rot)}"
        else:
            z_name = "1"
        l_name = self._quotient_name(k_proj, r_part)
        return f"({data.o2.label()} ^{z_name} x_{l_name} ^{r_name} {k_name})"

    def _quotient_name(self, k_proj: list[int], r_part: list[int]) -> str:
        q = len(k_proj) // len(r_part)
        if q == 1:
            return "1"
        # cyclic iff some coset generates the quotient
        g = self.gamma_z2
        rset = frozenset(r_part)
        cosets = {}
        for a in k_proj:
            key = frozenset(int(g.table[a, r]) for r in rset)
            cosets.setdefault(key, min(int(g.table[a, r]) for r in rset))
        reps = list(cosets.values())
        for a in reps:
            cur, k = a, 1
            while frozenset(int(g.table[cur, r]) for r in rset) != rset:
                cur = int(g.table[cur, a])
                k += 1
            if k == q:
                return f"Z{q}"
        return f"D{q // 2}"
