"""Orbit lattice: truncation/lift round trips, level stability, labels."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revdeg.degrees import DegreeEngine
from revdeg.groups import (
    SubgroupHandle,
    closure,
    conjugate_members,
    is_conjugate,
    normalizer,
)
from revdeg.lattice import (
    AmalgamData,
    ClassLattice,
    InadmissibleLevel,
    O2Desc,
    TruncationInstability,
    row_order,
)
from revdeg.spectra import LinearizationSpec, spectral_summary
from test_groups import gamma_z2_and_subgroups


def decode_reference(lat, idx, level):
    """(o2 index within D_level, is_reflection, gamma_z2 index)."""
    o2, ge = divmod(idx, lat.ng)
    return (o2 % level, o2 >= level, ge)


def lift_reference(lat, members, level):
    """ClassLattice.lift member by member: decode each index, collect the
    angles of each fibre, then sort the (Fraction, ge) pairs."""
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
    return AmalgamData(o2, tuple(rot_all), tuple(refl_all),
                       tuple(sorted(rot_fin)), tuple(sorted(refl_fin)))


def lift_before_split(lat, members, level):
    """ClassLattice.lift as it was before its level check was split out: it
    decides both refusals while building the Fractions of every member set."""
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
        return AmalgamData(o2, parts[0], parts[1], (), ())
    return AmalgamData(o2, (), (), parts[0], parts[1])


def assert_decided_as_before(lat, members, level):
    """_level_check, lift and lookup give lift_before_split's O(2)-part (and
    lift its AmalgamData), or its refusal with the same message."""
    try:
        want = lift_before_split(lat, members, level)
    except TruncationInstability as e:
        for decide in (lat._level_check, lat.lift, lat.lookup):
            with pytest.raises(TruncationInstability) as got:
                decide(members, level)
            assert str(got.value) == str(e)
    else:
        assert lat._level_check(members, level) == want.o2
        got = lat.lift(members, level)
        assert got == want and repr(got) == repr(want)
        assert lat.lookup(members, level)[1] == want.o2


def truncate_reference(lat, data, level):
    """ClassLattice.truncate member by member: encode every angle of every
    fibre, then sort."""
    out = []
    for ge in data.rot_all:
        out.extend(lat.encode(t, False, ge, level) for t in range(level))
    for ge in data.refl_all:
        out.extend(lat.encode(t, True, ge, level) for t in range(level))
    for q, ge in data.rot_fin:
        t = q * level
        if t.denominator != 1:
            raise InadmissibleLevel(
                f"level {level} not divisible by fold denominator {q.denominator}")
        out.append(lat.encode(int(t), False, ge, level))
    for q, ge in data.refl_fin:
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
    from revdeg.lattice import AmalgamData
    bad = AmalgamData(O2Desc("D", 3), (), (),
                      ((Fraction(0), 0),), ((Fraction(1, 3), 0),))
    with pytest.raises(InadmissibleLevel):
        lat.truncate(bad, 32)
    assert_truncate_matches_reference(lat, bad, 32)
    assert_truncate_matches_reference(lat, bad, 48)


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
        reps = [lat._rep_at(cid, level) for cid in range(n_classes)]
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
    return closure(lat.group_lo, gens).members


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
        assert got == want
        assert repr(got) == repr(want)  # plain ints and Fractions, not numpy scalars
        # back at level, at the doubled level and at a level the folds may
        # not divide
        assert lat.truncate(got, level) == members
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
    # the orbit index; a subset of it (a fibre cut short, say) mostly misses
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
    # rows into the orbit index; fold 16 is above 32 // 4, so lookup refuses
    # every one of them, with lift's message
    lat = ClassLattice("dihedral", 8, 32)
    for gens in ([lat.encode(4, False, 0, lat.m_hi)],
                 [lat.encode(4, False, 0, lat.m_hi), lat.encode(0, True, 0, lat.m_hi)]):
        cid = lat.ensure_handle(closure(lat.group_hi, gens).members, lat.m_hi)
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
            h = set(lat._rep_at(i, level))
            for j in ids:
                by_sets = sum(1 for c in lat._orbits[(j, level)].tolist() if h <= set(c))
                assert lat._n_count_at(i, j, level) == by_sets


def assert_orbit_store(lat, rng):
    """Each class's orbit at each level is one sorted, read-only int32 array
    of distinct sorted rows, row 0 the representative, and _find_class maps
    every row to the class, whatever the container, dtype or member order."""
    for cid in range(len(lat.classes)):
        for level in (lat.m_lo, lat.m_hi):
            rows = lat._orbits[(cid, level)]
            assert rows.dtype == np.int32 and not rows.flags.writeable
            assert rows.shape[1] == lat.order_of(cid, level)
            assert np.all(np.diff(rows, axis=1) > 0)
            as_tuples = [tuple(r) for r in rows.tolist()]
            assert as_tuples == sorted(set(as_tuples))
            assert as_tuples[0] == lat._rep_at(cid, level)
            for row in as_tuples:
                shuffled = rng.permutation(row)
                for members in (tuple(shuffled.tolist()), shuffled.tolist(),
                                shuffled.astype(np.int64), shuffled.astype(np.int32)):
                    assert lat._find_class(members, level) == cid


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
    the reference for _weyl_at, which reads orbit sizes."""
    g = lat.group_at(level)
    rep = lat._rep_at(cid, level)
    return len(normalizer(g, SubgroupHandle(g, rep))) // len(rep)


def assert_weyl_orders(lat):
    for cid in range(len(lat.classes)):
        for level in (lat.m_lo, lat.m_hi):
            assert lat._weyl_at(cid, level) == weyl_reference(lat, cid, level)


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
    engine8.omega(spectral_summary(LinearizationSpec(1, {natural: (Fraction(-3),)},
                                                     {natural: 1})))
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
    # among the classes' conjugates names the class that an is_conjugate
    # scan over the classes finds; a member set that is not a subgroup is
    # refused
    lat = ClassLattice(kind, n, 4)
    g = lat.gamma_z2
    for mem in gamma_z2_and_subgroups(kind, n)[1]:
        h = SubgroupHandle(g, mem)
        scan = [c.class_id for c in lat._finite_classes
                if len(c.representative) == len(mem) and is_conjugate(g, h, c.representative)]
        assert [lat._finite_class_id(mem)] == scan
    with pytest.raises(RuntimeError):
        lat._finite_class_id((1,))
