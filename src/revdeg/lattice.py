"""Conjugacy classes of closed subgroups of O(2) x Gamma x Z2, realized
through finite dihedral truncations D_M x Gamma x Z2.

A class is stored as its members at its own level (AmalgamData): a
dihedral or cyclic fold f at level 2f, turned so that its least reflection
axis is at angle 0; an O(2)- or SO(2)-type class at level 1, where the index
of (0, refl, ge) stands for the whole fibre of ge over every rotation
(reflection).  Truncating at level M scales each angle index t to t*M/2f
(refused when that is not whole) and writes a whole fibre at every angle;
lifting inverts this and promotes folds that fill D_M to SO(2)/O(2).

Conjugacy over the full group is conjugacy in the truncation extended by the
half-step rotation twist (the normalizer of D_M in O(2) is D_2M).

This module alone decides truncation levels: level_for_modes sizes the base
level M (default_level is the fixed level of an engine given none), and
ClassLattice.at_both_levels computes every Weyl order, containment count,
product and fixed dimension at M and at 2M and refuses a mismatch.
ClassLattice.fold maps a class to its preimage under the k-fold map of O(2),
by index arithmetic on its members at its own level, and interns it at M.

The stabilizer sampler runs on Gamma x Z2 at mode 0 (group_at(None)) and
at m_sample = level_for_modes(n, [0, 1]) at mode 1, or at M where m_sample
does not divide M: a mode-1 stabilizer's rotation angles are eigen-phases of
Gamma x Z2 elements and its reflection axes differ by such angles, so with
one axis at 0 it lies on the grid of m_sample.

One level map moves a class between levels, by index arithmetic: decode
splits an index at a level into (t, refl, ge), the inverse of encode;
truncate writes a class's own-level members at any level whose grid holds
its angles (the sampling levels, the level 2k of exact_weyl), which
representative returns, and at_working_level carries a sampled subgroup
back up to M.

Each interned class keeps its full-group orbit once per level, as a sorted,
read-only big-endian int32 (>i4) array with one row of members per
conjugate; row 0 (the lex-min conjugate) is the class's representative at
that level.  Big-endian bytes of non-negative ints order as the ints do, so
the rows, viewed as one void scalar each (row_keys), are a sorted 1-D array,
and the orbits are the class index: a member set is found by one binary
search in each orbit of its level and length.  The walk that builds an orbit
also gives the class's Weyl order at that level, by orbit-stabilizer, so no
normalizer is formed for it.

Every member set met by the engine goes through lookup, which searches the
orbits first and runs the level check (a fold too close to the level, or
mixed fibres under a full fold) only where lookup says it is needed.  lift
writes a new class's representative at its own level.

Products of classes count double cosets.  When a factor has a finite
O(2)-part, only the double cosets whose intersection holds a reflection can
contribute (the others are cyclic folds, with infinite Weyl group).  When a
factor is of O(2)- or SO(2)-type it contains the normal subgroup SO(2) x 1,
so the double cosets are those of the quotient Z2 x Gamma x Z2, whatever
the level, and their least elements lift to the level in order.  When both
factors have a finite O(2)-part, the double cosets that can contribute are
found from the solutions of x k x^-1 = h for reflections h and k of the
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import (
    FiniteGroup,
    ProductGroup,
    SubgroupClass,
    coset_intersections,
    direct_product,
    double_cosets,
    gamma_z2_subgroups,
    make_cyclic,
    make_gamma,
    normalizer,
    orbit_walk,
    subgroup_classes,
    subgroup_conjugates,
)
from .names import gamma_z2_subgroup_name


class TruncationInstability(RuntimeError):
    """A count or class disagreed between levels M and 2M."""


class InadmissibleLevel(ValueError):
    """Truncation level not divisible by a required fold."""


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
    """A subgroup of O(2) x Gamma x Z2 as its sorted members at its own level.

    level 1 for O(2)/SO(2) type: the index of (0, refl, ge) stands for the
    fibre of ge over every rotation (refl false) or reflection (refl true).
    level 2·fold for a dihedral or cyclic fold, turned so that its least
    reflection axis is at angle 0.
    """

    o2: O2Desc
    members: tuple[int, ...]

    @property
    def level(self) -> int:
        return 1 if self.o2.kind in ("O2", "SO2") else 2 * self.o2.fold

    def truncated_order(self, m: int) -> int:
        return len(self.members) * m if self.level == 1 else len(self.members)


def level_for_modes(n: int, modes) -> int:
    """The base level M for Gamma = D_n or Z_n and the Fourier modes to be
    computed: 4·lcm(n, 2, k·n for every mode k >= 1), doubled while M/4 is
    below K·lcm(n, 2), K the highest mode.  A mode-k fold is at most
    k·lcm(n, 2), the largest order in Gamma x Z2, and lift refuses a fold
    above M/4.  Only odd n doubles: modes 0..2, or a lone even mode K."""
    ks = [k for k in modes if k >= 1]
    level = 4 * math.lcm(n, 2, *(k * n for k in ks))
    while level < 4 * max(ks, default=0) * math.lcm(n, 2):
        level *= 2
    return level


def default_level(n: int) -> int:
    """The base level of an engine given none, whatever its modes."""
    return 4 * math.lcm(n, 4)


# the largest 2M group a lattice is built for: D8 at modes 0-7 (mu = -50,
# level 13,440) has 1,720,320 elements and ran in about 1 GB; at modes 0-8
# it has 3,440,640
MAX_GROUP_ORDER = 2 ** 21


def trunc_group(gamma_z2: FiniteGroup, m: int) -> ProductGroup:
    """D_M x (Gamma x Z2); o2 index = idx // |Gamma x Z2| (rotations < M).
    D_M is multiplied by index arithmetic, so neither a |G|^2 nor a (2M)^2
    table is built: the group keeps O(|G|) entries at any level."""
    return ProductGroup(m, gamma_z2)


def gamma_z2_classes(kind: str, n: int) -> tuple[FiniteGroup, list[SubgroupClass], list[str]]:
    """Gamma x Z2, its subgroup classes and the printed name of each class
    (gamma_z2_subgroup_name for a dihedral Gamma, else the class's own name)."""
    gz = direct_product(make_gamma(kind, n), make_cyclic(2))
    classes = subgroup_classes(gz, gamma_z2_subgroups(kind, n))
    if kind == "dihedral":
        return gz, classes, [gamma_z2_subgroup_name(n, c.representative) for c in classes]
    return gz, classes, [c.name for c in classes]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """The rows (the last axis) of a contiguous big-endian int32 array as a
    1-D array of one void scalar each, which compare as the rows compare
    lexicographically when their values are non-negative."""
    return rows.view(f"V{4 * rows.shape[-1]}").ravel()


def row_order(rows: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows of a 2-D array of non-negative
    int32 values lexicographically: one argsort of their row_keys."""
    return np.argsort(row_keys(rows.astype(">i4", copy=False)))


def grid_indices(num, den, level: int) -> np.ndarray:
    """The indices at level of the angles num/den of a full turn (arrays or
    scalars), refused (InadmissibleLevel) unless all are whole."""
    num, den = np.asarray(num, dtype=np.int64), np.asarray(den, dtype=np.int64)
    t, off = np.divmod(num * level, den)
    if off.any():
        first = np.flatnonzero(off)[0]
        n, d = (int(np.broadcast_to(a, off.shape).flat[first]) for a in (num, den))
        raise InadmissibleLevel(
            f"level {level} not divisible by fold denominator {d // math.gcd(n, d)}")
    return t


class ClassLattice:
    """Working set of subgroup classes with the level-M / level-2M protocol,
    for Gamma = D_n (kind "dihedral") or Z_n (kind "cyclic").

    Owns the truncated groups at both levels (and m_sample), interns classes
    by full-group conjugacy, and caches Weyl orders, containment counts and
    the order relation, each verified stable across the two levels.
    """

    def __init__(self, kind: str, n: int, base_level: int):
        self.gamma_z2, classes, names = gamma_z2_classes(kind, n)
        # every subgroup of Gamma x Z2, as sorted members -> its class's name
        self._finite_names = {conj: name for c, name in zip(classes, names)
                              for conj in c.conjugates}
        self.ng = self.gamma_z2.order
        if base_level < 4 or base_level % 4 != 0:
            raise InadmissibleLevel(f"base level {base_level} must be a positive multiple of 4")
        self.m_lo = base_level
        self.m_hi = 2 * base_level
        if 2 * self.m_hi * self.ng > MAX_GROUP_ORDER:
            raise InadmissibleLevel(
                f"base level {base_level}: the group at level {self.m_hi} would have "
                f"{2 * self.m_hi * self.ng} elements, above {MAX_GROUP_ORDER}")
        self.group_lo = trunc_group(self.gamma_z2, self.m_lo)
        self.group_hi = trunc_group(self.gamma_z2, self.m_hi)
        # the sampler's level at mode 1; m_lo under a --truncation it does not divide
        sample = level_for_modes(n, [0, 1])
        self.m_sample = sample if self.m_lo % sample == 0 else self.m_lo
        self._groups = {None: self.gamma_z2, self.m_lo: self.group_lo, self.m_hi: self.group_hi}
        if self.m_sample not in self._groups:
            self._groups[self.m_sample] = trunc_group(self.gamma_z2, self.m_sample)
        self.classes: list[AmalgamData] = []
        self.labels: list[str] = []
        # (class id, level) -> the class's full-group orbit at level, as
        # conjugates_full returns it; row 0 is the representative
        self._orbits: dict[tuple[int, int], np.ndarray] = {}
        # (class id, level) -> one reflection per conjugacy class of
        # reflections inside the representative
        self._refl_reps: dict[tuple[int, int], list[int]] = {}
        self._weyl: list[int | None] = []   # None marks infinite
        self._by_label: dict[str, int] = {}
        # (level, subgroup order) -> the ids of the classes of that order, in
        # interning order
        self._by_order: dict[tuple[int, int], list[int]] = {}
        self._n_cache: dict[tuple[int, int], int] = {}
        self._mul_cache: dict[tuple[int, int], dict[int, int]] = {}
        # (class id, k) -> the id of fold(class id, k)
        self._folds: dict[tuple[int, int], int] = {}
        self.escape_log: list[str] = []
        # the full group is always class 0
        self.ensure_handle(tuple(range(self.group_lo.order)), self.m_lo)

    # -- element decoding ----------------------------------------------------

    def group_at(self, level: int | None) -> ProductGroup | FiniteGroup:
        """The truncation at m_lo, m_hi or m_sample; Gamma x Z2 at None."""
        if level not in self._groups:
            raise InadmissibleLevel(f"unsupported level {level}")
        return self._groups[level]

    def encode(self, t, refl, ge, level: int):
        """Index at level of (rotation or reflection t, ge); ints or arrays."""
        return ((t % level) + level * refl) * self.ng + ge

    def decode(self, members, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, refl, ge) of indices at level, as arrays: the inverse of encode."""
        o2, ge = np.divmod(np.asarray(members, dtype=np.int64), self.ng)
        refl = o2 >= level
        return o2 - level * refl, refl, ge

    # -- lift / truncate -----------------------------------------------------

    def lift(self, members, level: int) -> AmalgamData:
        """The AmalgamData of a truncated subgroup, promoting folds that fill
        D_M; an unstable truncation is refused by _level_check.  A fold is
        turned so that its least reflection axis is at angle 0, then each
        angle index t is written at its own level 2·fold (always whole)."""
        o2 = self._level_check(members, level)
        t, refl, ge = self.decode(members, level)
        if o2.kind in ("O2", "SO2"):
            # whole fibres: each (refl, ge) once, at angle 0 of level 1
            fibres = np.bincount(self.encode(0, refl, ge, 1), minlength=2 * self.ng)
            return AmalgamData(o2, tuple(np.flatnonzero(fibres).tolist()))
        if refl.any():
            t = np.where(refl, (t - t[refl].min()) % level, t)
        own = 2 * o2.fold
        members = self.encode(grid_indices(t, level, own), refl, ge, own)
        return AmalgamData(o2, tuple(np.sort(members).tolist()))

    def _level_check(self, members, level: int) -> O2Desc:
        """The O(2)-part of a truncated subgroup at level.  Refuses a fold
        too close to the level (_check_fold), then, for a fold that fills
        D_M, fibres over Gamma x Z2 holding some but not all angles."""
        t, refl, ge = self.decode(members, level)
        d = int(np.count_nonzero(np.bincount(t[~refl], minlength=1)))
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

    def truncate(self, data: AmalgamData, level: int) -> tuple[int, ...]:
        """The members of data's subgroup at level, sorted (_written_at)."""
        return tuple(self._written_at(data, level).tolist())

    def _written_at(self, data: AmalgamData, level: int) -> np.ndarray:
        """data's members decoded at its own level and written at level, as
        a sorted array: a whole fibre at every angle; a fold's angle index t
        as t·level/data.level, refused (grid_indices) when that is not
        whole."""
        t, refl, ge = self.decode(data.members, data.level)
        if data.level == 1:
            t, refl, ge = np.arange(level), refl[:, None], ge[:, None]
        else:
            t = grid_indices(t, data.level, level)
        return np.sort(self.encode(t, refl, ge, level), axis=None)

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
        sorted rows of a read-only big-endian int32 array, and the Weyl order
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
        rows = rows.astype(">i4")
        rows = rows[row_order(rows)]
        rows.setflags(write=False)
        return rows, weyl

    def is_conjugate_full(self, a, b, level: int) -> bool:
        if len(a) != len(b):
            return False
        row = np.sort(np.asarray(b, dtype=np.int32))
        return bool((self.conjugates_full(a, level)[0] == row).all(axis=1).any())

    # -- class interning -----------------------------------------------------

    def finite_class_name(self, mem) -> str:
        """Printed name of the Gamma x Z2 class holding the subgroup with
        members mem."""
        return self._finite_names[tuple(int(v) for v in sorted(mem))]

    def ensure_handle(self, members, level: int) -> int:
        """Intern the class of a truncated subgroup; returns its class id."""
        cid, _ = self.lookup(members, level)
        if cid is not None:
            return cid
        # new class: canonical representative = lex-min conjugate at each
        # level; everything that can refuse runs before the lattice changes
        walks = {level: self.conjugates_full(members, level)}
        data = self.lift(walks[level][0][0], level)
        other = self.m_hi if level == self.m_lo else self.m_lo
        walks[other] = self.conjugates_full(self.truncate(data, other), other)
        label = self._format(data)
        # a cyclic fold's Weyl group contains SO(2)/fold: infinite, and its
        # truncated orders grow with the level
        weyl = None if data.o2.kind == "Z" else self.at_both_levels(
            lambda m: walks[m][1], f"Weyl order of {label}")
        cid = len(self.classes)
        self.classes.append(data)
        self._weyl.append(weyl)
        for lv, (rows, _) in walks.items():
            self._orbits[(cid, lv)] = rows
            self._by_order.setdefault((lv, rows.shape[1]), []).append(cid)
        base, k = label, 2
        while label in self._by_label:
            label = f"{base}#{k}"  # distinct classes sharing printed Goursat data
            k += 1
        if label != base:
            self.escape_log.append(f"label collision: {base}")
        self.labels.append(label)
        self._by_label[label] = cid
        return cid

    def fold(self, cid: int, k: int) -> int | None:
        """The class Theta_k(H) of H = class cid: its preimage under
        psi_k x id, psi_k: O(2) -> O(2), e^{i theta} -> e^{ik theta},
        kappa -> kappa, interned at m_lo; None for a cyclic fold, whose
        preimage is one too.  W_k is W_1 pulled back along psi_k, so
        Theta_k carries the isotropy classes and basic degrees of mode 1 to
        those of mode k.

        SO(2) and O(2) are their own preimages.  A dihedral fold j has fold
        kj: each member (t, ge) of its data at level l = 2j has the k
        preimages (t + i·l, ge), i < k, at level k·l, listed member by
        member (so a refusal names the first member's off-grid preimage).
        The image is refused (_check_fold, truncate) or interned at m_lo."""
        data = self.classes[cid]
        if data.o2.kind in ("O2", "SO2"):
            return cid
        if data.o2.kind == "Z":
            return None
        key = (cid, k)
        if key not in self._folds:
            o2 = O2Desc("D", k * data.o2.fold)
            self._check_fold(o2, self.m_lo)
            t, refl, ge = self.decode(data.members, data.level)
            members = self.encode(t[:, None] + data.level * np.arange(k), refl[:, None],
                                  ge[:, None], k * data.level)
            image = AmalgamData(o2, tuple(members.ravel().tolist()))
            self._folds[key] = self.ensure_handle(self.truncate(image, self.m_lo), self.m_lo)
        return self._folds[key]

    def _rep_array(self, cid: int, level: int) -> np.ndarray:
        """The representative at level: row 0 of the class's orbit."""
        return self._orbits[(cid, level)][0]

    def representative(self, cid: int, level: int | None) -> np.ndarray:
        """A subgroup in class cid at any level, as sorted members: the
        Gamma x Z2 projection of its data at None; _rep_array at m_lo and
        m_hi (the lex-min conjugate, which is the data written there: its
        least axis is at 0); at any other level its data written there
        (_written_at), refused when an angle is off the level's grid."""
        data = self.classes[cid]
        if level is None:
            return np.flatnonzero(np.bincount(np.asarray(data.members) % self.ng,
                                              minlength=self.ng))
        if level in (self.m_lo, self.m_hi):
            return self._rep_array(cid, level)
        return self._written_at(data, level)

    def at_working_level(self, members, level: int | None) -> np.ndarray:
        """A subgroup of group_at(level) carried to m_lo, order kept: O(2) x
        members at None; else each decoded angle index t becomes
        t·m_lo/level.  It takes a representative at m_sample back to a
        conjugate of the class at m_lo."""
        if level is None:
            ge = np.asarray(members)
            fibres = np.concatenate([ge, self.ng + ge]).tolist()
            return self._written_at(AmalgamData(O2Desc("O2"), tuple(fibres)), self.m_lo)
        t, refl, ge = self.decode(members, level)
        return self.encode(t * (self.m_lo // level), refl, ge, self.m_lo)

    def class_id_by_label(self, label: str) -> int:
        return self._by_label[label]

    # -- Weyl orders, containment counts -------------------------------------

    def exact_weyl(self, cid: int) -> int | None:
        """|W(S)| in the full O(2) x Gamma x Z2, from the class's AmalgamData
        alone; no truncation level M or 2M enters.  None marks infinite.

        N(S) projects into the O(2)-normalizer of S's O(2)-part, and
        N_O(2)(SO(2)) = N_O(2)(O(2)) = O(2), N_O(2)(D_k) = D_2k:

        - O(2)/SO(2) part: every angle pairs with the same rotation fibre
          R and reflection fibre (the members decoded at level 1), so
          (a, b) normalizes S iff b normalizes both fibres, for any a in
          O(2).  |W| = [N' : R], doubled for SO(2), whose normalizing
          reflections lie outside S.
        - dihedral fold k: the data has a reflection axis at angle 0 and
          lies in D_2k x Gamma x Z2, which then contains the whole
          normalizer, and |W| is a normalizer order in that finite group
          (the data's own level 2k).
        - cyclic fold: SO(2) normalizes S, so W is infinite.
        """
        data = self.classes[cid]
        kind = data.o2.kind
        if kind == "Z":
            return None
        k = self.gamma_z2
        if kind in ("O2", "SO2"):
            _, refl, ge = self.decode(data.members, 1)
            fibres = [tuple(f.tolist()) for f in (ge[~refl], ge[refl]) if f.size]
            n_prime = set.intersection(*(set(normalizer(k, f)) for f in fibres))
            w = len(n_prime) // int(np.count_nonzero(~refl))
            return 2 * w if kind == "SO2" else w
        members = data.members
        return len(normalizer(trunc_group(k, data.level), members)) // len(members)

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
          D_k with an axis at 0, so it is conjugate to L (also turned to
          axis 0) by N_O(2)(D_k) x Gamma x Z2 = D_2k x Gamma x Z2; count those
          conjugates at L's own level 2k.
        """
        s, l = self.classes[i], self.classes[j]
        k = self.gamma_z2
        if l.o2.kind in ("O2", "SO2"):
            _, s_refl, s_ge = self.decode(s.members, s.level)
            _, l_refl, l_ge = self.decode(l.members, 1)
            rot, refl = set(s_ge[~s_refl].tolist()), set(s_ge[s_refl].tolist())
            pairs = {(tuple(sorted(k.conjugate(b, x) for x in l_ge[~l_refl].tolist())),
                      tuple(sorted(k.conjugate(b, x) for x in l_ge[l_refl].tolist())))
                     for b in range(k.order)}
            return sum(1 for r, f in pairs if rot <= set(r) and refl <= set(f))
        if s.o2.kind != "D" or l.o2.fold % s.o2.fold:
            return 0
        h = set(self.truncate(s, l.level))
        conjs = subgroup_conjugates(trunc_group(k, l.level), l.members)
        return sum(1 for c in conjs if h <= set(c))

    def at_both_levels(self, at, what: str):
        """at(M), once at(2M) is found equal to it: the one comparison of the
        two truncation levels.  A mismatch raises TruncationInstability
        naming what differs."""
        lo, hi = at(self.m_lo), at(self.m_hi)
        if lo != hi:
            raise TruncationInstability(
                f"{what} differs between levels {self.m_lo} and {self.m_hi}: {lo} vs {hi}")
        return lo

    def weyl(self, cid: int) -> int | None:
        return self._weyl[cid]

    def finite_weyl(self, cid: int) -> bool:
        return self._weyl[cid] is not None

    def n_count(self, i: int, j: int) -> int:
        """Number of conjugates of class j's representative containing class i's."""
        key = (i, j)
        if key not in self._n_cache:
            self._n_cache[key] = self.at_both_levels(
                lambda m: self._n_count_at(i, j, m), f"n({self.labels[i]},{self.labels[j]})")
        return self._n_cache[key]

    def _n_count_at(self, i: int, j: int, level: int) -> int:
        """n_count at one level: the conjugates of class j, as rows of member
        indices, whose members include every member of class i's rep.  By
        Lagrange none does when |rep i| does not divide |rep j|."""
        h, rows = self._rep_array(i, level), self._orbits[(j, level)]
        if rows.shape[1] % len(h):
            return 0
        in_h = np.zeros(self.group_at(level).order, dtype=bool)
        in_h[h] = True
        return int(np.count_nonzero(in_h[rows].sum(axis=1) == len(h)))

    def leq(self, i: int, j: int) -> bool:
        return i == j or self.n_count(i, j) > 0

    def order_of(self, cid: int, level: int | None = None) -> int:
        return self.classes[cid].truncated_order(level or self.m_lo)

    def sorted_ids(self, ids=None) -> list[int]:
        """Deterministic topological order refining >= (the full group first)."""
        ids = list(range(len(self.classes))) if ids is None else list(ids)
        return sorted(ids, key=lambda c: (-self.order_of(c), self.labels[c]))

    # -- products -------------------------------------------------------------

    def product_classes(self, i: int, j: int) -> dict[int, int]:
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
            result = self.at_both_levels(lambda m: self._product_at(i, j, m),
                                         f"product ({self.labels[i]})*({self.labels[j]})")
        self._mul_cache[key] = result
        return dict(result)

    def _product_at(self, i: int, j: int, level: int) -> dict[int, int]:
        """product_classes at one level, visiting the double cosets in
        increasing order of their least elements (classes are interned in
        that order).

        When H or K has a finite O(2)-part, an intersection with no
        reflection (an element whose O(2)-part is a reflection) is a cyclic
        fold, whose Weyl group is infinite, and is skipped with no lookup;
        a fold of either factor too close to the level is refused first
        (_check_fold), as lift would refuse it.  When H or K is of O(2)- or
        SO(2)-type, the representatives come from the quotient
        (_quotient_cosets); otherwise only the double cosets meeting
        _reflection_conjugators are visited.
        """
        g = self.group_at(level)
        h, k = self._rep_array(i, level), self._rep_array(j, level)
        for c in (i, j):
            self._check_fold(self.classes[c].o2, level)
        kinds = {self.classes[i].o2.kind, self.classes[j].o2.kind}
        finite = bool(kinds & {"D", "Z"})
        if kinds & {"O2", "SO2"}:
            xs = self._quotient_cosets(h, k, level)
        else:
            xs = double_cosets(g, h, k, self._reflection_conjugators(i, j, level))
        coeffs: dict[int, int] = {}
        for inter in coset_intersections(g, h, k, xs):
            if finite and inter[-1] < level * self.ng:
                continue  # sorted, so no member is a reflection
            known = len(self.classes)
            cid = self.ensure_handle(inter, level)
            if cid >= known:
                self.escape_log.append(f"extended working set: {self.labels[cid]}")
            if self.finite_weyl(cid):
                coeffs[cid] = coeffs.get(cid, 0) + 1
        return coeffs

    @cached_property
    def _quotient(self) -> FiniteGroup:
        """G/N = Z2 x Gamma x Z2 for N = SO(2) x 1, the same at every level;
        built on the first product that needs it."""
        return direct_product(make_cyclic(2), self.gamma_z2)

    def _quotient_cosets(self, h, k, level: int) -> np.ndarray:
        """The least elements of the double cosets HxK at level, in
        increasing order, for members h and k of H and K at level, H or K
        of O(2)- or SO(2)-type, from the quotient Q = G/N = Z2 x Gamma x Z2
        alone.

        N = SO(2)_level x 1 is normal in G and lies in H or K, so every HxK
        is a union of N-cosets and H\\G/K is H'\\Q/K' for the images H', K'.
        Q is D_1 x Gamma x Z2, the truncation at level 1: an element's image
        is its (0, refl, ge).  The least element of an N-coset is its
        rotation or reflection at angle 0, so the least element of HxK is
        that of its image, (0, refl, ge) encoded at level; that keeps order."""
        images = []
        for members in (h, k):
            _, refl, ge = self.decode(members, level)
            images.append(np.flatnonzero(np.bincount(self.encode(0, refl, ge, 1),
                                                     minlength=self._quotient.order)))
        _, refl, ge = self.decode(double_cosets(self._quotient, *images), 1)
        return self.encode(0, refl, ge, level)

    def _reflection_conjugators(self, i: int, j: int, level: int) -> np.ndarray:
        """Elements x with x k x^-1 = h, for h one reflection from each
        H-class of reflections in H and k one from each K-class in K.  They
        meet every double coset HxK whose intersection H ∩ xKx^-1 holds a
        reflection: if x k' x^-1 = h' with h' = a h a^-1 (a in H) and
        k' = b k b^-1 (b in K), then a^-1 x b lies in HxK and conjugates k
        to h."""
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
            refl = rep[self.decode(rep, level)[1]]
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

        The orbits are searched first (_find_class).  A miss runs
        _level_check.  A hit refuses exactly when the class is a finite fold
        above level // 4 (_check_fold): rows at the level the class was
        interned at passed lift, rows truncate built at the other level have
        whole fibres, and both refusals are invariant under conjugation."""
        cid = self._find_class(members, level)
        if cid is None:
            return None, self._level_check(members, level)
        o2 = self.classes[cid].o2
        self._check_fold(o2, level)
        return cid, o2

    def _find_class(self, members, level: int) -> int | None:
        """Id of the interned class whose orbit at level holds the members,
        by the orbits alone (lookup adds the level check): one binary search
        of the sorted members in the orbit of each class of their order, in
        interning order; the first orbit that holds them decides."""
        if level not in (self.m_lo, self.m_hi):
            raise InadmissibleLevel(f"unsupported level {level}")
        query = np.sort(np.asarray(members, dtype=np.int32)).astype(">i4")
        key = row_keys(query)
        for cid in self._by_order.get((level, len(query)), ()):
            keys = row_keys(self._orbits[(cid, level)])
            i = keys.searchsorted(key)[0]
            if i < len(keys) and keys[i] == key[0]:
                return cid
        return None

    # -- printable labels ------------------------------------------------------

    def _format(self, data: AmalgamData) -> str:
        g_all = data.truncated_order(self.m_lo) == self.group_lo.order
        if g_all:
            return "(G)"
        t, refl, ge = self.decode(data.members, data.level)
        k_proj = sorted(set(ge.tolist()))
        k_name = self.finite_class_name(k_proj)
        # R = fiber over the O(2)-identity; Z = fiber over the finite identity
        r_part = sorted(set(ge[~refl & (t == 0)].tolist()))
        quotient = len(k_proj) // len(r_part)
        if quotient == 1:
            return f"({data.o2.label()} x {k_name})"
        r_name = self.finite_class_name(r_part)
        z_rot = int(np.count_nonzero(~refl & (ge == 0)))
        z_refl = int(np.count_nonzero(refl & (ge == 0)))
        if data.o2.kind in ("O2", "SO2"):
            z_name = "SO(2)" if z_rot else "?"
        elif z_refl:
            z_name = f"D{z_rot}"
        elif z_rot > 1:
            z_name = f"Z{z_rot}"
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
