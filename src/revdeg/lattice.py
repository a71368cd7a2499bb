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
ClassLattice.at_both_levels compares a computation at a level L with the
same at 2L and refuses a mismatch: products and fixed dimensions at L = M,
Weyl orders and containment counts at the class's or pair's own pair_level.
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
its angles, which representative returns (once per class and level), and
at_working_level carries a sampled subgroup back up to M.

A class is keyed by its data made canonical: the lex-min row of its orbit
under D_level x Gamma x Z2 at its own level, which holds every element of
O(2) x Gamma x Z2 carrying one such data to another (for a dihedral fold f
at axis 0 the normalizer D_2f of D_f; for a cyclic fold one reflection; for
O(2)/SO(2) type, whose fibres O(2) fixes, none).  So two subgroups are
conjugate iff their canonical data are equal.  lookup answers a set found
before from a memo (level, sorted member bytes) -> class id, and any other
by _level_check (a set without the identity, a fold too close to the level,
or mixed fibres under a full fold), its canonical data and the class index.

A containment count n(H, L) is 0, with no scan, when one of the four
Goursat pieces of H (its O(2)-part, its kernel H ∩ (O(2) x 1), its
Gamma x Z2 projection and its identity fibre H ∩ (1 x Gamma x Z2)), which
are recorded when the class is interned, has no conjugate inside the same
piece of L: then no truncation finds L's conjugates containing H either.
Otherwise it is one mask over the rows of L's full-group orbit
(conjugates_full) at each own level of the pair, walked once per class and
level; a Weyl order is the orbit-stabilizer quotient of such walks.

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
from typing import NamedTuple

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


class NotASubgroup(ValueError):
    """A member set that is no subgroup: it lacks the identity, or an angle
    is off the grid of its fold."""


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

    def conjugate_into(self, other: O2Desc) -> bool:
        """Whether a subgroup of O(2) of this type has a conjugate inside
        one of type other: Z_a inside Z_b or D_b, and D_a inside D_b, iff
        a | b; SO(2) and every Z_a inside SO(2); all inside O(2)."""
        if other.kind == "O2":
            return True
        if other.kind == "SO2":
            return self.kind in ("SO2", "Z")
        if self.kind in ("O2", "SO2") or (self.kind, other.kind) == ("D", "Z"):
            return False
        return other.fold % self.fold == 0


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


class Goursat(NamedTuple):
    """Four level-free pieces of a subgroup H of O(2) x Gamma x Z2.  When H
    lies in a conjugate gLg^-1, each piece of H has a conjugate inside the
    same piece of L: in O(2) for the first two (O2Desc.conjugate_into), in
    Gamma x Z2 for the last two, as sorted members."""

    o2: O2Desc                    # the projection to O(2)
    kernel: O2Desc                # H ∩ (O(2) x 1)
    projection: tuple[int, ...]   # the projection to Gamma x Z2
    fibre: tuple[int, ...]        # H ∩ (1 x Gamma x Z2)


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


def pair_level(*o2s: O2Desc) -> int:
    """The lower own level of a class or pair: 4·lcm of the folds (1 for
    O(2)/SO(2) type), on whose grid they lie, each at most a quarter of it."""
    return 4 * math.lcm(*(o2.fold or 1 for o2 in o2s))


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

    Owns the truncated groups (built once per level), interns classes by
    their canonical own-level data, and caches Weyl orders, containment
    counts and the order relation, each verified stable across two levels.
    """

    def __init__(self, kind: str, n: int, base_level: int):
        self.gamma_z2, classes, names = gamma_z2_classes(kind, n)
        # every subgroup of Gamma x Z2, as sorted members -> its class's name
        # and members (SubgroupClass.conjugates)
        self._finite_classes = {conj: (name, c.conjugates) for c, name in zip(classes, names)
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
        self._groups = {None: self.gamma_z2}
        self.group_lo, self.group_hi = self.group_at(self.m_lo), self.group_at(self.m_hi)
        # the sampler's level at mode 1; m_lo under a --truncation it does not divide
        sample = level_for_modes(n, [0, 1])
        self.m_sample = sample if self.m_lo % sample == 0 else self.m_lo
        self.classes: list[AmalgamData] = []
        self.labels: list[str] = []
        # canonical own-level data -> class id: the class index; own-level
        # data met before -> its canonical form
        self._ids: dict[AmalgamData, int] = {}
        self._canon: dict[AmalgamData, AmalgamData] = {}
        # (class id, level) -> the class's full-group orbit at level, as
        # conjugates_full returns it, and its representative there
        self._orbits: dict[tuple[int, int], np.ndarray] = {}
        self._reps: dict[tuple[int, int], np.ndarray] = {}
        # (class id, level) -> one reflection per conjugacy class of
        # reflections inside the representative
        self._refl_reps: dict[tuple[int, int], list[int]] = {}
        self._weyl: list[int | None] = []   # None marks infinite
        self._by_label: dict[str, int] = {}
        self._n_cache: dict[tuple[int, int], int] = {}
        # class id -> its Goursat pieces, and (piece of H, piece of L) ->
        # whether the first has a conjugate inside the second
        self._goursat: list[Goursat] = []
        self._fits: dict[tuple, bool] = {}
        # (level, sorted int32 member bytes) -> the id of the class holding
        # them, for each set found before
        self._memo: dict[tuple[int, bytes], int] = {}
        self._mul_cache: dict[tuple[int, int], dict[int, int]] = {}
        # (class id, k) -> the id of fold(class id, k)
        self._folds: dict[tuple[int, int], int] = {}
        self.escape_log: list[str] = []
        # the full group is always class 0
        self.ensure_handle(tuple(range(self.group_lo.order)), self.m_lo)

    # -- element decoding ----------------------------------------------------

    def group_at(self, level: int | None) -> ProductGroup | FiniteGroup:
        """The truncation at level, built on first use; Gamma x Z2 at None."""
        if level not in self._groups:
            self._groups[level] = trunc_group(self.gamma_z2, level)
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
        D_M; an unstable truncation is refused by _level_check, and a set
        with an angle off the grid of its fold is no subgroup."""
        data = self._at_own_level(level, *self._level_check(members, level))
        if data is None:
            raise NotASubgroup(f"member set at level {level} has an angle off its fold's grid")
        return data

    def _at_own_level(self, level: int, o2: O2Desc, t, refl, ge) -> AmalgamData | None:
        """lift after _level_check: a fold is turned to put its least axis at
        angle 0 and written at 2·fold, whole for a subgroup (else None)."""
        if o2.kind in ("O2", "SO2"):
            # whole fibres: each (refl, ge) once, at angle 0 of level 1
            fibres = np.bincount(self.encode(0, refl, ge, 1), minlength=2 * self.ng)
            return AmalgamData(o2, tuple(np.flatnonzero(fibres).tolist()))
        if refl.any():
            t = np.where(refl, (t - t[refl].min()) % level, t)
        own = 2 * o2.fold
        t, off = np.divmod(t * own, level)
        if off.any():
            return None
        return AmalgamData(o2, tuple(np.sort(self.encode(t, refl, ge, own)).tolist()))

    def _canonical(self, data: AmalgamData) -> AmalgamData:
        """The class key: the lex-min row of data's orbit under D_level x
        Gamma x Z2 at its own level (see the module docstring), walked once
        per own-level form."""
        if data not in self._canon:
            rows = orbit_walk(self.group_at(data.level), data.members)
            least = rows[np.lexsort(rows.T[::-1])[0]]
            self._canon[data] = AmalgamData(data.o2, tuple(least.tolist()))
        return self._canon[data]

    def _level_check(self, members, level: int) -> tuple:
        """The O(2)-part of a truncated subgroup at level, and its members
        decoded there (t, refl, ge).  Refuses a fold too close to the level
        (_check_fold), then, for a fold that fills D_M, fibres over
        Gamma x Z2 holding some but not all angles.  A set without the
        identity (index 0) is no subgroup and is refused first
        (NotASubgroup); one with no rotation at all would be fold 0."""
        members = np.asarray(members, dtype=np.int64)
        if not (members == 0).any():
            raise NotASubgroup(f"member set at level {level} holds no identity")
        t, refl, ge = self.decode(members, level)
        d = int(np.count_nonzero(np.bincount(t[~refl], minlength=1)))
        has_refl = bool(refl.any())
        if d < level:
            o2 = O2Desc("D", d) if has_refl else O2Desc("Z", d)
            self._check_fold(o2, level)
            return o2, t, refl, ge
        for mask in (~refl, refl):
            # a fibre over ge holds every angle or finitely many
            counts = np.bincount(ge[mask], minlength=self.ng)
            if np.any((counts > 0) & (counts < level)):
                raise TruncationInstability("mixed full/finite fibers; raise the base level")
        return O2Desc("O2") if has_refl else O2Desc("SO2"), t, refl, ge

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
        sorted-member rows of a read-only int32 array, and the Weyl order
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
        return self._finite_classes[tuple(int(v) for v in sorted(mem))][0]

    def ensure_handle(self, members, level: int) -> int:
        """Intern the class of a truncated subgroup; returns its class id."""
        cid, o2, data = self._find_class(members, level)
        if cid is not None:
            return cid
        if data is None:
            self.lift(members, level)  # refuses it: an angle is off its fold's grid
        # new class: everything that can refuse runs before the lattice changes
        goursat = self._goursat_of(data)
        label = self._format(data, goursat)
        # a cyclic fold's Weyl group contains SO(2)/fold: infinite, and its
        # truncated orders grow with the level; any other is the orbit-
        # stabilizer quotient of the walks at the class's own levels
        walks, weyl = {}, None
        if o2.kind != "Z":
            own = pair_level(o2)
            walks = {m: self.conjugates_full(self._written_at(data, m), m) for m in (own, 2 * own)}
            weyl = self.at_both_levels(lambda m: walks[m][1], f"Weyl order of {label}", own)
        cid = len(self.classes)
        self.classes.append(data)
        self._ids[data] = cid
        self._goursat.append(goursat)
        self._weyl.append(weyl)
        for m, (rows, _) in walks.items():
            self._orbits[(cid, m)], self._reps[(cid, m)] = rows, rows[0]
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

    def representative(self, cid: int, level: int | None) -> np.ndarray:
        """A subgroup in class cid at any level, as sorted members: the
        Gamma x Z2 projection of its data at None; else its data written
        there (_written_at), as a read-only int32 array kept once per class
        and level, refused when an angle is off the level's grid."""
        data = self.classes[cid]
        if level is None:
            return np.flatnonzero(np.bincount(np.asarray(data.members) % self.ng,
                                              minlength=self.ng))
        key = (cid, level)
        if key not in self._reps:
            rep = self._written_at(data, level).astype(np.int32)
            rep.setflags(write=False)
            self._reps[key] = rep
        return self._reps[key]

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
          R and reflection fibre C, a coset of R, so (a, b) normalizes S
          iff b normalizes R and maps C onto itself, for any a in O(2):
          iff b normalizes R and the projection R ∪ C (the Goursat pieces
          fibre and projection).  |W| = [N' : R], doubled for SO(2), whose
          normalizing reflections lie outside S.
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
            r, proj = self._goursat[cid].fibre, self._goursat[cid].projection
            w = len(set(normalizer(k, r)) & set(normalizer(k, proj))) // len(r)
            return 2 * w if kind == "SO2" else w
        members = data.members
        return len(normalizer(self.group_at(data.level), members)) // len(members)

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
            b = np.arange(k.order)[:, None]
            rows = [np.sort(k.conjugate(b, f), axis=1).tolist()
                    for f in (l_ge[~l_refl], l_ge[l_refl])]
            pairs = {(tuple(r), tuple(f)) for r, f in zip(*rows)}
            return sum(1 for r, f in pairs if rot <= set(r) and refl <= set(f))
        if s.o2.kind != "D" or l.o2.fold % s.o2.fold:
            return 0
        h = set(self.truncate(s, l.level))
        conjs = subgroup_conjugates(self.group_at(l.level), l.members)
        return sum(1 for c in conjs if h <= set(c))

    def at_both_levels(self, at, what: str, level: int | None = None):
        """at(L), once at(2L) is found equal to it, L = level or M: the one
        comparison of two truncation levels.  A mismatch raises
        TruncationInstability naming what differs."""
        level = level or self.m_lo
        lo, hi = at(level), at(2 * level)
        if lo != hi:
            raise TruncationInstability(
                f"{what} differs between levels {level} and {2 * level}: {lo} vs {hi}")
        return lo

    def weyl(self, cid: int) -> int | None:
        return self._weyl[cid]

    def finite_weyl(self, cid: int) -> bool:
        return self._weyl[cid] is not None

    def n_count(self, i: int, j: int) -> int:
        """Number of conjugates of class j's representative containing class
        i's: 0 when a Goursat piece of class i has no conjugate inside that
        of class j (_pieces_fit), as the scan would find at every level,
        else the scan at the pair's own levels L = pair_level and 2L (the
        pieces fit only where fold i divides fold j or j is of O(2) type)."""
        key = (i, j)
        if key not in self._n_cache:
            fit = self._pieces_fit(i, j)
            level = pair_level(self.classes[i].o2, self.classes[j].o2)
            self._n_cache[key] = self._scanned_n_count(i, j, level) if fit else 0
        return self._n_cache[key]

    def checked_n_count(self, i: int, j: int) -> int:
        """n_count, with a pair the Goursat pieces answer 0 scanned at m_lo
        and m_hi all the same, and refused (TruncationInstability) if not 0."""
        count = self.n_count(i, j)
        if not self._pieces_fit(i, j) and (scanned := self._scanned_n_count(i, j, self.m_lo)):
            raise TruncationInstability(
                f"n({self.labels[i]},{self.labels[j]}) is 0 by its Goursat pieces "
                f"but {scanned} at both levels")
        return count

    def _scanned_n_count(self, i: int, j: int, level: int) -> int:
        return self.at_both_levels(lambda m: self._n_count_at(i, j, m),
                                   f"n({self.labels[i]},{self.labels[j]})", level)

    def _pieces_fit(self, i: int, j: int) -> bool:
        """Whether each Goursat piece of class i has a conjugate inside the
        same piece of class j, as it must when some conjugate of class j
        contains class i; cached per pair of pieces."""
        for a, b in zip(self._goursat[i], self._goursat[j]):
            fit = self._fits.get((a, b))
            if fit is None:
                if isinstance(a, O2Desc):
                    fit = a.conjugate_into(b)
                else:
                    fit = any(set(a) <= set(c) for c in self._finite_classes[b][1])
                self._fits[(a, b)] = fit
            if not fit:
                return False
        return True

    def _n_count_at(self, i: int, j: int, level: int) -> int:
        """n_count at one level: the conjugates of class j (conjugates_full,
        walked once per class and level), as rows of member indices, whose
        members include every member of class i's rep.  By Lagrange none
        does when |rep i| does not divide |rep j|, and no walk is needed."""
        h = self.representative(i, level)
        if self.order_of(j, level) % len(h):
            return 0
        if (j, level) not in self._orbits:
            self._orbits[(j, level)] = self.conjugates_full(self.representative(j, level),
                                                            level)[0]
        rows = self._orbits[(j, level)]
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
        h, k = self.representative(i, level), self.representative(j, level)
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
            rep = self.representative(cid, level)
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
        """The id of the interned class holding the members (any container
        of ints, any order) at m_lo or m_hi, or None, and their O(2)-part;
        an unstable truncation is refused as lift refuses it."""
        cid, o2, _ = self._find_class(members, level)
        return cid, o2

    def _find_class(self, members, level: int) -> tuple[int | None, O2Desc, AmalgamData | None]:
        """lookup, and on a miss the members' canonical data (None for a set
        off its fold's grid, no subgroup).  A set found before passed
        _level_check at this level, so the memo answers it; any other is
        checked, canonicalised and found in the class index."""
        if level not in (self.m_lo, self.m_hi):
            raise InadmissibleLevel(f"unsupported level {level}")
        memo = (level, np.sort(np.asarray(members, dtype=np.int32)).tobytes())
        if memo in self._memo:
            cid = self._memo[memo]
            return cid, self.classes[cid].o2, None
        o2, *decoded = self._level_check(members, level)
        data = self._at_own_level(level, o2, *decoded)
        if data is None:
            return None, o2, None
        data = self._canonical(data)
        cid = self._ids.get(data)
        if cid is not None:
            self._memo[memo] = cid
        return cid, o2, data

    # -- printable labels ------------------------------------------------------

    def _goursat_of(self, data: AmalgamData) -> Goursat:
        """data's Goursat pieces, read from its own-level members.  The
        kernel is SO(2) or O(2) at level 1, else D_z or Z_z for the z
        rotations paired with the identity of Gamma x Z2 (ge 0); the
        identity fibre is the ge of the rotations at angle 0."""
        t, refl, ge = self.decode(data.members, data.level)
        kernel_refl = bool(np.any(refl & (ge == 0)))
        if data.level == 1:
            kernel = O2Desc("O2" if kernel_refl else "SO2")
        else:
            kernel = O2Desc("D" if kernel_refl else "Z", int(np.count_nonzero(~refl & (ge == 0))))
        return Goursat(data.o2, kernel, tuple(sorted(set(ge.tolist()))),
                       tuple(sorted(set(ge[~refl & (t == 0)].tolist()))))

    def _format(self, data: AmalgamData, goursat: Goursat) -> str:
        if data.truncated_order(self.m_lo) == self.group_lo.order:
            return "(G)"
        k_proj, r_part = list(goursat.projection), list(goursat.fibre)
        k_name = self.finite_class_name(k_proj)
        if len(k_proj) == len(r_part):
            return f"({data.o2.label()} x {k_name})"
        # a proper fibre keeps the kernel off O(2), so an O(2)-type class's
        # kernel is SO(2)
        r_name = self.finite_class_name(r_part)
        l_name = self._quotient_name(k_proj, r_part)
        return f"({data.o2.label()} ^{goursat.kernel.label()} x_{l_name} ^{r_name} {k_name})"

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
