"""Orbit lattice: truncation/lift round trips, level stability, labels."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjugacy import is_conjugate
from revdeg.degrees import DegreeEngine
from revdeg.groups import (
    closure,
    conjugate_members,
    normalizer,
)
from revdeg.lattice import (
    AmalgamData,
    ClassLattice,
    InadmissibleLevel,
    O2Desc,
    TruncationInstability,
    gamma_z2_classes,
    level_for_modes,
    row_order,
    trunc_group,
)
from revdeg.spectra import LinearizationSpec
from test_groups import gamma_z2_and_subgroups


def decode_reference(lat, idx, level):
    """(o2 index within D_level, is_reflection, gamma_z2 index)."""
    o2, ge = divmod(idx, lat.ng)
    return (o2 % level, o2 >= level, ge)


def fraction_form(lat, data):
    """data's own-level members as the membership rule they stand for:
    (o2, rot_all, refl_all, rot_fin, refl_fin), the fibres paired with
    every rotation/reflection (level 1), else the sorted (Fraction of a full
    turn, ge) pairs of each part (for reflections, of the dihedral index
    range)."""
    rot_all, refl_all, rot_fin, refl_fin = [], [], [], []
    for idx in data.members:
        t, refl, ge = decode_reference(lat, int(idx), data.level)
        if data.level == 1:
            (refl_all if refl else rot_all).append(ge)
        else:
            (refl_fin if refl else rot_fin).append((Fraction(t, data.level), ge))
    return (data.o2, tuple(rot_all), tuple(refl_all),
            tuple(sorted(rot_fin)), tuple(sorted(refl_fin)))


def turned(form):
    """A membership rule conjugated by a rotation so that its least
    reflection axis is at angle 0."""
    o2, rot_all, refl_all, rot_fin, refl_fin = form
    if refl_fin:
        q0 = refl_fin[0][0]
        refl_fin = tuple(sorted(((q - q0) % 1, ge) for q, ge in refl_fin))
    return o2, rot_all, refl_all, rot_fin, refl_fin


def lift_reference(lat, members, level):
    """ClassLattice.lift member by member: decode each index, collect the
    angles of each fibre, then sort the (Fraction, ge) pairs; the membership
    rule of fraction_form, turned to axis 0."""
    rot_by_ge, refl_by_ge = {}, {}
    rot_indices = set()
    for idx in members:
        t, refl, ge = decode_reference(lat, int(idx), level)
        if refl:
            refl_by_ge.setdefault(ge, []).append(t)
        else:
            rot_by_ge.setdefault(ge, []).append(t)
            rot_indices.add(t)
    d = len(rot_indices)
    has_refl = bool(refl_by_ge)
    if d == level:
        o2 = O2Desc("O2") if has_refl else O2Desc("SO2")
    else:
        if d > level // 4:
            raise TruncationInstability(f"fold {d} too close to level {level}")
        o2 = O2Desc("D", d) if has_refl else O2Desc("Z", d)
    full = d == level
    rot_all, refl_all, rot_fin, refl_fin = [], [], [], []
    for by_ge, all_, fin in ((rot_by_ge, rot_all, rot_fin), (refl_by_ge, refl_all, refl_fin)):
        for ge, ts in sorted(by_ge.items()):
            if full and len(ts) == level:
                all_.append(ge)
            else:
                fin.extend((Fraction(t, level), ge) for t in ts)
    if full and (rot_fin or refl_fin):
        raise TruncationInstability("mixed full/finite fibers")
    return turned((o2, tuple(rot_all), tuple(refl_all),
                   tuple(sorted(rot_fin)), tuple(sorted(refl_fin))))


def lift_before_split(lat, members, level):
    """ClassLattice.lift as it was before its level check was split out: it
    decides both refusals while building the Fractions of every member set;
    the membership rule of fraction_form, turned to axis 0."""
    o2_idx, ge = np.divmod(np.asarray(members, dtype=np.int64), lat.ng)
    refl = o2_idx >= level
    t = o2_idx % level
    rot = ~refl
    d = np.unique(t[rot]).size
    has_refl = bool(refl.any())
    full = d == level
    if full:
        o2 = O2Desc("O2") if has_refl else O2Desc("SO2")
    else:
        if d > level // 4:
            raise TruncationInstability(
                f"fold {d} too close to truncation level {level}; raise the base level")
        o2 = O2Desc("D", d) if has_refl else O2Desc("Z", d)
    parts = []
    for mask in (rot, refl):
        t_part, ge_part = t[mask], ge[mask]
        if full:
            counts = np.bincount(ge_part, minlength=lat.ng)
            if np.any((counts > 0) & (counts < level)):
                raise TruncationInstability(
                    "mixed full/finite fibers; raise the base level")
            parts.append(tuple(np.flatnonzero(counts == level).tolist()))
            continue
        order = np.lexsort((ge_part, t_part))
        parts.append(tuple(zip([Fraction(t, level) for t in t_part[order].tolist()],
                               ge_part[order].tolist())))
    if full:
        return turned((o2, parts[0], parts[1], (), ()))
    return turned((o2, (), (), parts[0], parts[1]))


def assert_decided_as_before(lat, members, level):
    """_level_check, lift and lookup give lift_before_split's O(2)-part (and
    lift, for a subgroup, its membership rule), or its refusal with the same
    message."""
    try:
        want = lift_before_split(lat, members, level)
    except TruncationInstability as e:
        for decide in (lat._level_check, lat.lift, lat.lookup):
            with pytest.raises(TruncationInstability) as got:
                decide(members, level)
            assert str(got.value) == str(e)
    else:
        assert lat._level_check(members, level) == want[0]
        assert lat.lookup(members, level)[1] == want[0]
        if closure(lat.group_at(level), members) == tuple(sorted(int(x) for x in members)):
            got = lat.lift(members, level)
            assert fraction_form(lat, got) == want
            assert all(type(v) is int for v in got.members)


def truncate_reference(lat, data, level):
    """ClassLattice.truncate member by member: encode every angle of every
    fibre of data's fraction_form, then sort."""
    _, rot_all, refl_all, rot_fin, refl_fin = fraction_form(lat, data)
    out = []
    for ge in rot_all:
        out.extend(lat.encode(t, False, ge, level) for t in range(level))
    for ge in refl_all:
        out.extend(lat.encode(t, True, ge, level) for t in range(level))
    for q, ge in rot_fin:
        t = q * level
        if t.denominator != 1:
            raise InadmissibleLevel(
                f"level {level} not divisible by fold denominator {q.denominator}")
        out.append(lat.encode(int(t), False, ge, level))
    for q, ge in refl_fin:
        t = q * level
        if t.denominator != 1:
            raise InadmissibleLevel(
                f"level {level} not divisible by fold denominator {q.denominator}")
        out.append(lat.encode(int(t), True, ge, level))
    return tuple(sorted(out))


def assert_truncate_matches_reference(lat, data, level):
    """truncate gives the reference's tuple of ints, or the same refusal."""
    try:
        want = truncate_reference(lat, data, level)
    except InadmissibleLevel as e:
        with pytest.raises(InadmissibleLevel) as got:
            lat.truncate(data, level)
        assert str(got.value) == str(e)
    else:
        got = lat.truncate(data, level)
        assert got == want
        assert all(type(v) is int for v in got)


def half_twist_reference(lat, members, level):
    """ClassLattice.half_twist member by member."""
    out = []
    for idx in members:
        t, refl, ge = decode_reference(lat, int(idx), level)
        out.append(lat.encode(t + 1 if refl else t, refl, ge, level))
    return tuple(sorted(out))


@pytest.fixture(scope="module")
def lat():
    return ClassLattice("dihedral", 8, 32)


def so2_class(lat):
    members = [t * lat.ng + ge for t in range(lat.m_lo) for ge in range(lat.ng)]
    return lat.ensure_handle(tuple(sorted(members)), lat.m_lo)


def test_full_group_is_class_zero(lat):
    assert lat.labels[0] == "(G)"
    assert lat.weyl(0) == 1
    data = lat.classes[0]
    assert data.o2.kind == "O2"


def test_truncate_orders(lat):
    # |truncation| = |H_M| * |K| / |L|
    full = lat.classes[0]
    assert full.truncated_order(32) == 64 * 32
    assert full.truncated_order(64) == 128 * 32
    cid = so2_class(lat)
    assert lat.classes[cid].truncated_order(32) == 32 * 32


def test_roundtrip_lift_truncate(lat):
    for cid in range(len(lat.classes)):
        data = lat.classes[cid]
        for level in (lat.m_lo, lat.m_hi):
            members = lat.truncate(data, level)
            again = lat.lift(members, level)
            assert again == data
            assert_truncate_matches_reference(lat, data, level)


def test_so2_promotion_tracks_level(lat):
    cid = so2_class(lat)
    data = lat.classes[cid]
    assert data.o2 == O2Desc("SO2")
    lo = lat.truncate(data, lat.m_lo)
    hi = lat.truncate(data, lat.m_hi)
    assert len(hi) == 2 * len(lo)
    assert lat.lift(lo, lat.m_lo) == lat.lift(hi, lat.m_hi)


def test_weyl_so2_class(lat):
    # normalizer of SO(2) x (Gamma x Z2) is everything: Weyl order 2|Gamma x Z2|
    cid = so2_class(lat)
    assert lat.weyl(cid) == lat.exact_weyl(cid) == 2


def test_n_count_full_group(lat):
    for cid in range(len(lat.classes)):
        assert lat.n_count(cid, 0) == 1
        if lat.finite_weyl(cid):
            assert lat.exact_n_count(cid, 0) == 1


def test_n_count_so2_in_full(lat):
    cid = so2_class(lat)
    assert lat.n_count(cid, 0) == 1
    assert lat.leq(cid, 0)
    assert not lat.leq(0, cid)


def test_inadmissible_level_raises(lat):
    # the rotation 0 and the reflection at 1/3 of the index range, at the
    # own level 6 of fold 3
    bad = AmalgamData(O2Desc("D", 3), (lat.encode(0, False, 0, 6), lat.encode(2, True, 0, 6)))
    with pytest.raises(InadmissibleLevel):
        lat.truncate(bad, 32)
    assert_truncate_matches_reference(lat, bad, 32)
    assert_truncate_matches_reference(lat, bad, 48)


def test_representative_refuses_an_angle_off_the_grid():
    # D3 x 1 interned at level 24: the rotation and the reflection at 1/3
    # turn have no index at level 8 (rounding down would put them at 2); at
    # levels 6, 24 and 48 they are at a third of the level
    lat = ClassLattice("dihedral", 2, 24)
    d3 = closure(lat.group_lo, [lat.encode(8, False, 0, 24), lat.encode(0, True, 0, 24)])
    cid = lat.ensure_handle(d3, 24)
    with pytest.raises(InadmissibleLevel, match="denominator 3"):
        lat.representative(cid, 8)
    for level in (6, 24, 48):
        assert lat.representative(cid, level).tolist() == sorted(
            lat.encode(level // 3 * i, refl, 0, level) for i in range(3) for refl in (False, True))


def test_poset_partial_order(lat, engine8=None):
    ids = range(len(lat.classes))
    for i in ids:
        assert lat.leq(i, i)
        for j in ids:
            if i != j and lat.leq(i, j) and lat.leq(j, i):
                raise AssertionError("antisymmetry violated")
            for k in ids:
                if lat.leq(i, j) and lat.leq(j, k):
                    assert lat.leq(i, k)


def test_labels_deterministic():
    a = ClassLattice("dihedral", 8, 32)
    b = ClassLattice("dihedral", 8, 32)
    members = [t * a.ng + ge for t in range(32) for ge in range(a.ng)]
    ca = a.ensure_handle(tuple(sorted(members)), 32)
    cb = b.ensure_handle(tuple(sorted(members)), 32)
    assert a.labels[ca] == b.labels[cb] == "(SO(2) x D8p)"


def test_trivial_finite_part_classes(lat):
    # SO(2) x 1 x 1 and O(2) x 1 x 1: Weyl orders 2|Gamma x Z2| and |Gamma x Z2|
    so2_triv = tuple(t * lat.ng for t in range(lat.m_lo))
    o2_triv = tuple(t * lat.ng for t in range(2 * lat.m_lo))
    c_so2 = lat.ensure_handle(so2_triv, lat.m_lo)
    c_o2 = lat.ensure_handle(o2_triv, lat.m_lo)
    assert lat.labels[c_so2] == "(SO(2) x Z1)"
    assert lat.labels[c_o2] == "(O(2) x Z1)"
    assert lat.weyl(c_so2) == lat.exact_weyl(c_so2) == 2 * lat.ng
    assert lat.weyl(c_o2) == lat.exact_weyl(c_o2) == lat.ng
    # a unique full-group copy sits above the rotation subgroup
    assert lat.n_count(c_so2, c_o2) == lat.exact_n_count(c_so2, c_o2) == 1
    assert lat.exact_n_count(c_o2, c_so2) == 0


def test_cyclic_fold_flagged_infinite(lat):
    from revdeg.lattice import O2Desc
    z2_triv = (0, (lat.m_lo // 2) * lat.ng)  # rotation by pi, trivial finite part
    cid = lat.ensure_handle(z2_triv, lat.m_lo)
    assert lat.classes[cid].o2 == O2Desc("Z", 2)
    assert not lat.finite_weyl(cid)
    assert lat.exact_weyl(cid) is None


def test_half_twist_identifies_axis_parity(lat):
    # single-reflection subgroups on adjacent axes are conjugate in the full
    # group (via a half-step rotation) though not inside D_M
    g = lat.group_lo
    h1 = (0, lat.m_lo * lat.ng)          # identity and reflection sigma_0
    h2 = (0, (lat.m_lo + 1) * lat.ng)    # identity and reflection sigma_1
    assert lat.is_conjugate_full(h1, h2, lat.m_lo)


def test_orbit_lookup_matches_conjugacy(engine8, natural):
    # the working set of the example's mode-0 and mode-1 basic degrees
    engine8.basic_degree(0, natural)
    engine8.basic_degree(1, natural)
    lat = engine8.lattice
    n_classes = len(lat.classes)
    rng = np.random.default_rng(11)
    for level in (lat.m_lo, lat.m_hi):
        g = lat.group_at(level)
        reps = [tuple(lat._rep_array(cid, level).tolist()) for cid in range(n_classes)]
        for cid, rep in enumerate(reps):
            assert lat._find_class(rep, level) == cid
            for x in rng.integers(0, g.order, size=4):
                conj = conjugate_members(g, int(x), rep)
                assert lat.ensure_handle(conj, level) == cid
                assert lat.ensure_handle(lat.half_twist(conj, level), level) == cid
            assert lat.ensure_handle(lat.half_twist(rep, level), level) == cid
        assert len(lat.classes) == n_classes
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                assert lat.is_conjugate_full(a, b, level) == (i == j)


def test_ensure_handle_refuses_before_lookup():
    # Z16 (every fourth rotation) is fine at level 64 but too close to
    # level 32; interned at 64, its level-32 truncation is in the orbit
    # index and must still be refused, as must the same group uninterned
    lat = ClassLattice("dihedral", 8, 32)
    z16_lo = tuple(lat.encode(2 * t, False, 0, lat.m_lo) for t in range(16))
    with pytest.raises(TruncationInstability):
        lat.ensure_handle(z16_lo, lat.m_lo)
    cid = lat.ensure_handle(
        tuple(lat.encode(4 * t, False, 0, lat.m_hi) for t in range(16)), lat.m_hi)
    assert lat._find_class(z16_lo, lat.m_lo) == cid
    n_classes = len(lat.classes)
    with pytest.raises(TruncationInstability):
        lat.ensure_handle(z16_lo, lat.m_lo)
    assert len(lat.classes) == n_classes


GAMMAS = [("dihedral", n) for n in range(1, 7)] + [("cyclic", n) for n in range(1, 7)]


@functools.cache
def lattice_for(gamma_index: int, level: int) -> ClassLattice:
    return ClassLattice(*GAMMAS[gamma_index], level)


# random subgroups of a truncation, generated by (rotation index,
# reflection?, Gamma x Z2 index) triples; coarse rotation indices give small
# folds, fine ones folds that refuse or fill D_M
SUBGROUP_SEEDS = st.lists(st.tuples(st.integers(0, 63), st.booleans(), st.integers(0, 23)),
                          max_size=3)


def random_subgroup(lat, level, seed, coarse):
    """The subgroup of the level truncation (lat's lower level) that a
    SUBGROUP_SEEDS draw generates."""
    step = level // 4 if coarse else 1
    gens = [lat.encode(t * step, refl, ge % lat.ng, level) for t, refl, ge in seed]
    return closure(lat.group_lo, gens)


@given(st.integers(0, len(GAMMAS) - 1), st.sampled_from([8, 16, 32]), SUBGROUP_SEEDS,
       st.booleans())
@settings(max_examples=120, deadline=None)
def test_lift_and_half_twist_match_per_member_reference(gamma_index, level, seed, coarse):
    lat = lattice_for(gamma_index, level)
    members = random_subgroup(lat, level, seed, coarse)
    try:
        want = lift_reference(lat, members, level)
    except TruncationInstability:
        with pytest.raises(TruncationInstability):
            lat.lift(members, level)
    else:
        got = lat.lift(members, level)
        assert fraction_form(lat, got) == want
        assert all(type(v) is int for v in got.members)  # plain ints, not numpy scalars
        # back at level, at the doubled level and at a level the folds may
        # not divide
        # back at level: the members, turned so that the least axis is at 0
        decoded = [decode_reference(lat, x, level) for x in members]
        t0 = min((t for t, refl, _ in decoded if refl), default=0)
        assert lat.truncate(got, level) == tuple(sorted(
            lat.encode((t - t0) % level if refl else t, refl, ge, level)
            for t, refl, ge in decoded))
        for other in (level, 2 * level, 3 * level // 2, 6):
            assert_truncate_matches_reference(lat, got, other)
    twisted = tuple(lat.half_twist(members, level).tolist())
    assert twisted == half_twist_reference(lat, members, level)


@given(st.integers(0, len(GAMMAS) - 1), st.sampled_from([8, 16, 32]), SUBGROUP_SEEDS,
       st.booleans(), st.sampled_from(["subgroup", "conjugate", "subset"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_level_check_and_lookup_decide_as_lift_did(gamma_index, level, seed, coarse, form,
                                                   draw):
    # a drawn subgroup is interned first, so that it and its conjugates hit
    # the interned orbits; a subset of it (a fibre cut short, say) mostly misses
    lat = lattice_for(gamma_index, level)
    members = random_subgroup(lat, level, seed, coarse)
    try:
        lat.ensure_handle(members, level)
    except TruncationInstability:
        pass
    rng = np.random.default_rng(draw)
    if form == "conjugate":
        members = conjugate_members(lat.group_lo, int(rng.integers(lat.group_lo.order)), members)
        if rng.random() < 0.5:
            members = lat.half_twist(members, level)
    elif form == "subset":
        members = np.asarray(members)[rng.random(len(members)) < rng.random()]
    assert_decided_as_before(lat, members, level)


def test_every_orbit_row_decided_as_before(engine8, natural):
    # every row the index holds, at the level its class was interned at and
    # at the other level, where truncate built it
    engine8.basic_degree(0, natural)
    engine8.basic_degree(1, natural)
    lat = engine8.lattice
    for cid in range(len(lat.classes)):
        for level in (lat.m_lo, lat.m_hi):
            for row in lat._orbits[(cid, level)]:
                assert lat._find_class(row, level) is not None
                assert_decided_as_before(lat, row, level)


def test_lookup_refuses_hit_above_fold_limit():
    # Z16 and D16 interned at level 64 (fold 16 = 64 // 4) put their level-32
    # rows into the orbits; fold 16 is above 32 // 4, so lookup refuses
    # every one of them, with lift's message
    lat = ClassLattice("dihedral", 8, 32)
    for gens in ([lat.encode(4, False, 0, lat.m_hi)],
                 [lat.encode(4, False, 0, lat.m_hi), lat.encode(0, True, 0, lat.m_hi)]):
        cid = lat.ensure_handle(closure(lat.group_hi, gens), lat.m_hi)
        assert lat.classes[cid].o2.fold == 16
        assert lat.lookup(lat._rep_array(cid, lat.m_hi), lat.m_hi) == (cid, lat.classes[cid].o2)
        for row in lat._orbits[(cid, lat.m_lo)]:
            assert lat._find_class(row, lat.m_lo) == cid
            with pytest.raises(TruncationInstability,
                               match="fold 16 too close to truncation level 32"):
                lat.lookup(row, lat.m_lo)
            assert_decided_as_before(lat, row, lat.m_lo)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([1, 2, 7, 230]),
       st.sampled_from([2, 256, 70000, 2**31 - 1]))
@settings(max_examples=100, deadline=None)
def test_row_order_is_lexsort_order(draw, n_rows, width, bound):
    # rows with repeats (bound 2) and values of one to four significant bytes
    rows = np.random.default_rng(draw).integers(0, bound, size=(n_rows, width), dtype=np.int32)
    assert np.array_equal(rows[row_order(rows)], rows[np.lexsort(rows.T[::-1])])


def test_n_count_mask_matches_member_sets(engine8, natural):
    engine8.basic_degree(0, natural)
    engine8.basic_degree(1, natural)
    lat = engine8.lattice
    ids = range(len(lat.classes))
    for level in (lat.m_lo, lat.m_hi):
        for i in ids:
            h = set(lat._rep_array(i, level).tolist())
            for j in ids:
                by_sets = sum(1 for c in lat._orbits[(j, level)].tolist() if h <= set(c))
                assert lat._n_count_at(i, j, level) == by_sets


def test_n_count_lagrange_short_cut_matches_full_scan():
    # the D8 level-64 working set after existence_analysis: at both levels
    # every pair counts as a full scan of class j's orbit rows, also where
    # |rep i| does not divide |rep j| and _n_count_at returns 0 unscanned
    eng = DegreeEngine("dihedral", 8, base_level=64)
    nat = eng.natural_component()
    eng.existence_analysis(LinearizationSpec(1, {nat: (Fraction(-6),)}, {nat: 1}))
    lat = eng.lattice
    ids = range(len(lat.classes))
    skipped = 0
    for level in (lat.m_lo, lat.m_hi):
        for i in ids:
            h = lat._rep_array(i, level)
            in_h = np.zeros(lat.group_at(level).order, dtype=bool)
            in_h[h] = True
            for j in ids:
                rows = lat._orbits[(j, level)]
                full = int(np.count_nonzero(in_h[rows].sum(axis=1) == len(h)))
                assert lat._n_count_at(i, j, level) == full
                skipped += rows.shape[1] % len(h) != 0
    assert skipped


def assert_orbit_store(lat, rng):
    """Each class's orbit at each level is one sorted, read-only big-endian
    int32 array of distinct sorted rows, row 0 the representative, and
    _find_class maps every row to the class, whatever the container, dtype
    or member order, and the representative shifted by one (which lacks the
    identity) to no class."""
    for cid in range(len(lat.classes)):
        for level in (lat.m_lo, lat.m_hi):
            rows = lat._orbits[(cid, level)]
            assert rows.dtype == np.dtype(">i4") and not rows.flags.writeable
            assert rows.shape[1] == lat.order_of(cid, level)
            assert np.all(np.diff(rows, axis=1) > 0)
            as_tuples = [tuple(r) for r in rows.tolist()]
            assert as_tuples == sorted(set(as_tuples))
            assert as_tuples[0] == tuple(lat._rep_array(cid, level).tolist())
            for row in as_tuples:
                shuffled = rng.permutation(row)
                for members in (tuple(shuffled.tolist()), shuffled.tolist(),
                                shuffled.astype(np.int64), shuffled.astype(np.int32)):
                    assert lat._find_class(members, level) == cid
            assert lat._find_class(lat._rep_array(cid, level) + 1, level) is None


@given(st.integers(0, len(GAMMAS) - 1), st.sampled_from([8, 16]), SUBGROUP_SEEDS,
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_orbit_store_rows_and_lookup(gamma_index, level, seed, coarse):
    lat = lattice_for(gamma_index, level)
    members = random_subgroup(lat, level, seed, coarse)
    try:
        lat.ensure_handle(members, level)
    except TruncationInstability:
        pass
    assert_orbit_store(lat, np.random.default_rng(len(members)))


def test_orbit_store_of_example_working_set(engine8, natural):
    engine8.basic_degree(0, natural)
    engine8.basic_degree(1, natural)
    assert_orbit_store(engine8.lattice, np.random.default_rng(5))


def weyl_reference(lat, cid, level):
    """|N(rep)|/|rep| with the normalizer formed in the truncation at level:
    the reference for the Weyl order that conjugates_full reads from the
    orbit size."""
    g = lat.group_at(level)
    rep = tuple(lat._rep_array(cid, level).tolist())
    return len(normalizer(g, rep)) // len(rep)


def assert_weyl_orders(lat):
    for cid in range(len(lat.classes)):
        for level in (lat.m_lo, lat.m_hi):
            weyl = lat.conjugates_full(lat._rep_array(cid, level), level)[1]
            assert weyl == weyl_reference(lat, cid, level)


@given(st.integers(0, len(GAMMAS) - 1), st.sampled_from([8, 16]), SUBGROUP_SEEDS,
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_weyl_orders_match_normalizer_reference(gamma_index, level, seed, coarse):
    lat = lattice_for(gamma_index, level)
    members = random_subgroup(lat, level, seed, coarse)
    try:
        lat.ensure_handle(members, level)
    except TruncationInstability:
        pass
    assert_weyl_orders(lat)


def test_weyl_orders_of_example_working_set(engine8, natural):
    engine8.basic_degree(0, natural)
    engine8.basic_degree(1, natural)
    engine8.existence_analysis(LinearizationSpec(1, {natural: (Fraction(-3),)}, {natural: 1}))
    assert_weyl_orders(engine8.lattice)


def test_weyl_orders_of_d8_at_level_64():
    eng = DegreeEngine("dihedral", 8, base_level=64)
    for k in (0, 1, 2):
        for l in range(eng.component_count()):
            eng.isotropy_classes(k, l)
    assert_weyl_orders(eng.lattice)


@pytest.mark.parametrize("kind,n", [("dihedral", n) for n in range(1, 13)]
                         + [("cyclic", n) for n in range(1, 13)] + [("dihedral", 16)])
def test_finite_class_lookup_matches_conjugacy_scan(kind, n):
    # every subgroup of Gamma x Z2, from the closure reference: the lookup
    # among the classes' conjugates gives the name of the class that an
    # is_conjugate scan over the classes finds; a member set that is not a
    # subgroup is refused
    lat = ClassLattice(kind, n, 4)
    g, classes, names = gamma_z2_classes(kind, n)
    for mem in gamma_z2_and_subgroups(kind, n)[1]:
        scan = [names[c.class_id] for c in classes
                if len(c.representative) == len(mem) and is_conjugate(g, mem, c.representative)]
        assert [lat.finite_class_name(mem)] == scan
    with pytest.raises(KeyError):
        lat.finite_class_name((1,))


@pytest.fixture(scope="module")
def level_map():
    # D8 at modes 0-2: levels 64/128, m_sample 32
    return ClassLattice("dihedral", 8, level_for_modes(8, range(3)))


@given(st.sampled_from(["one", "sample", "lo", "hi"]), st.integers(0, 2**31 - 1),
       st.booleans(), st.integers(0, 31))
@settings(max_examples=100, deadline=None)
def test_decode_inverts_encode(level_map, which, t, refl, ge):
    lat = level_map
    assert lat.ng == 32
    level = {"one": 1, "sample": lat.m_sample, "lo": lat.m_lo, "hi": lat.m_hi}[which]
    idx = lat.encode(t % level, refl, ge, level)
    assert 0 <= idx < 2 * level * lat.ng
    assert tuple(map(int, lat.decode(idx, level))) == (t % level, refl, ge)
    assert int(lat.encode(*lat.decode(idx, level), level)) == idx


@pytest.mark.parametrize("kind,n", [("dihedral", n) for n in (1, 2, 3, 4, 5, 6, 8)]
                         + [("cyclic", n) for n in range(1, 7)], ids=lambda v: str(v))
def test_representative_at_every_level_is_a_subgroup_in_its_class(kind, n):
    # every dihedral-fold class met at modes 0-2, written at its own level
    # 2·fold, at m_sample and at m_hi: closed in the truncation there, and
    # found in its class at m_hi, or at m_lo once carried up
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(3)))
    lat = eng.lattice
    for k in range(3):
        for l in range(eng.component_count()):
            eng.basic_degree(k, l)
    checked = 0
    for cid, data in enumerate(lat.classes):
        if data.o2.kind != "D":
            continue
        for level in (2 * data.o2.fold, lat.m_sample, lat.m_hi):
            rep = lat.representative(cid, level)
            assert closure(trunc_group(lat.gamma_z2, level), rep) == tuple(rep.tolist())
            if level == lat.m_hi:
                assert lat._find_class(rep, level) == cid
            else:
                assert lat.m_lo % level == 0
                assert lat._find_class(lat.at_working_level(rep, level), lat.m_lo) == cid
        checked += 1
    assert checked


@functools.cache
def own_level_lattice(gamma_index: int) -> ClassLattice:
    """The lattice of an engine at the level of modes 0-2 after the basic
    degrees of those modes, with SO(2) x K, O(2) x K and Z4 x K interned
    for every subgroup class K of Gamma x Z2."""
    kind, n = GAMMAS[gamma_index]
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(3)))
    for k in range(3):
        for l in range(eng.component_count()):
            eng.basic_degree(k, l)
    lat = eng.lattice
    m = lat.m_lo
    for c in gamma_z2_classes(kind, n)[1]:
        for step in (1, m // 4):
            lat.ensure_handle(lat.encode(np.arange(0, m, step)[:, None], False,
                                         np.asarray(c.representative), m).ravel(), m)
        lat.ensure_handle(lat.at_working_level(c.representative, None), m)
    return lat


@pytest.mark.parametrize("gamma_index", range(len(GAMMAS)), ids=lambda i: str(GAMMAS[i]))
def test_representative_of_an_o2_type_class_is_the_whole_class(gamma_index):
    # an O(2)- or SO(2)-type class holds every rotation (reflection) of its
    # fibres at any level: all order_of members, and they lift to its data
    lat = own_level_lattice(gamma_index)
    checked = 0
    for cid, data in enumerate(lat.classes):
        if data.o2.kind not in ("O2", "SO2"):
            continue
        for level in (lat.m_sample, lat.m_hi, 4):
            rep = lat.representative(cid, level)
            assert len(rep) == lat.order_of(cid, level)
            assert lat.lift(rep, level) == data
        checked += 1
    assert {lat.classes[c].o2.kind for c in range(len(lat.classes))} == {"O2", "SO2", "D", "Z"}
    assert checked


@pytest.mark.parametrize("gamma_index", range(len(GAMMAS)), ids=lambda i: str(GAMMAS[i]))
def test_lift_inverts_truncate_on_own_level_data(gamma_index):
    # every interned class's data, written at m_lo, m_hi and (for a fold)
    # 4·fold, lifts back to itself; written at m_lo and m_hi it is the
    # lex-min row of the class's orbit; its representative at m_lo lifted
    # and written back at m_lo is found in its class
    lat = own_level_lattice(gamma_index)
    for cid, data in enumerate(lat.classes):
        levels = [lat.m_lo, lat.m_hi] + ([4 * data.o2.fold] if data.level > 1 else [])
        for level in levels:
            assert lat.lift(lat.truncate(data, level), level) == data
        for level in (lat.m_lo, lat.m_hi):
            assert lat.truncate(data, level) == tuple(lat._orbits[(cid, level)][0].tolist())
        x = lat.representative(cid, lat.m_lo)
        again = lat.truncate(lat.lift(x, lat.m_lo), lat.m_lo)
        assert lat.lookup(again, lat.m_lo) == (cid, data.o2)
