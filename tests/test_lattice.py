"""Orbit lattice: truncation/lift round trips, level stability, labels."""

from fractions import Fraction

import numpy as np
import pytest

from revdeg.degrees import DegreeEngine
from revdeg.groups import conjugate_members, make_dihedral
from revdeg.lattice import ClassLattice, InadmissibleLevel, O2Desc, TruncationInstability


@pytest.fixture(scope="module")
def lat():
    return ClassLattice(make_dihedral(8), 32, gamma_param=8)


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
    a = ClassLattice(make_dihedral(8), 32, gamma_param=8)
    b = ClassLattice(make_dihedral(8), 32, gamma_param=8)
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
    lat = ClassLattice(make_dihedral(8), 32, gamma_param=8)
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


def test_cyclic_fold_predicate_matches_lift(lat):
    # every rotation fold d | M with finite parts, and the same with a
    # reflection: the predicate is true exactly where lift returns a cyclic
    # fold without raising (d <= M/4); d = M/2 raises, d = M is SO(2)
    m = lat.m_lo
    for d in (1, 2, 4, 8, 16, 32):
        for ges in ((0,), (0, 1)):
            rot = [lat.encode(t * (m // d), False, ge, m) for t in range(d) for ge in ges]
            for members in (rot, rot + [lat.encode(t * (m // d), True, ge, m)
                                        for t in range(d) for ge in ges]):
                members = np.array(sorted(members))
                try:
                    expected = lat.lift(members, m).o2.kind == "Z"
                except TruncationInstability:
                    expected = False
                assert lat._cyclic_fold(members, m) == expected
                assert expected == (d <= m // 4 and len(members) == d * len(ges))


def test_cyclic_fold_skip_matches_lift(monkeypatch, natural):
    # product_classes drops cyclic-fold intersections before lift; with a
    # predicate that asks lift instead (the unskipped path), the products of
    # the example's mode-0/1/2 basic degrees and the classes are the same
    def products():
        eng = DegreeEngine("dihedral", 8, base_level=64)
        degs = [eng.basic_degree(k, natural) for k in (0, 1, 2)]
        for a in degs:
            for b in degs:
                a.multiply(b)
        return eng.lattice

    fast = ClassLattice._cyclic_fold
    answers = []

    def by_lift(self, members, level):
        kind = self.lift(tuple(members.tolist()), level).o2.kind
        answers.append(kind == "Z")
        assert fast(self, members, level) == answers[-1]
        return answers[-1]

    skipped = products()
    monkeypatch.setattr(ClassLattice, "_cyclic_fold", by_lift)
    unskipped = products()
    assert any(answers) and not all(answers)
    assert unskipped.labels == skipped.labels
    assert unskipped._mul_cache == skipped._mul_cache
    for level in (skipped.m_lo, skipped.m_hi):
        assert unskipped._reps[level] == skipped._reps[level]
