"""The Goursat screen of ClassLattice.n_count and the memo of lookup.

n_count answers 0, with no scan, when one of four Goursat pieces of H (the
O(2)-part, the kernel H ∩ (O(2) x 1), the Gamma x Z2 projection and the
identity fibre H ∩ (1 x Gamma x Z2)) has no conjugate inside the same piece
of L.  The pieces are checked against the representative at m_lo, their
O(2) rule against the scan, and every pair the screen answers against the
scan at both levels and the truncation-free exact_n_count; every count,
screened or scanned at the pair's own levels, equals the scan at the base
levels M and 2M.  lookup answers a member set it has found before from a
memo; it must give the class of every row of a class's full-group orbit,
and refuse what the level check refuses."""

import functools

import numpy as np
import pytest

from oracles import full_orbit, two_level_n_count
from revdeg.degrees import DegreeEngine
from revdeg.lattice import (
    AmalgamData,
    ClassLattice,
    InadmissibleLevel,
    O2Desc,
    TruncationInstability,
    gamma_z2_classes,
    level_for_modes,
)

GAMMAS = ([("dihedral", n) for n in (1, 2, 3, 4, 5, 6, 8)]
          + [("cyclic", n) for n in range(1, 7)])


def index_two_pairs(kind: str, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every pair R < K of subgroups of Gamma x Z2 with [K : R] = 2."""
    subgroups = [conj for c in gamma_z2_classes(kind, n)[1] for conj in c.conjugates]
    return [(r, k) for k in subgroups for r in subgroups
            if 2 * len(r) == len(k) and set(r) <= set(k)]


@functools.cache
def screened_lattice(gamma_index: int) -> ClassLattice:
    """The lattice of an engine at the level of modes 0-2 after the basic
    degrees of those modes, with O(2) ^SO(2) x_Z2 K interned for every
    index-2 pair R < K: rotations paired with R, reflections with K - R."""
    kind, n = GAMMAS[gamma_index]
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(3)))
    for k in range(3):
        for l in range(eng.component_count()):
            eng.basic_degree(k, l)
    lat = eng.lattice
    for r, k in index_two_pairs(kind, n):
        members = sorted([lat.encode(0, False, x, 1) for x in r]
                         + [lat.encode(0, True, x, 1) for x in sorted(set(k) - set(r))])
        data = AmalgamData(O2Desc("O2"), tuple(members))
        lat.ensure_handle(lat.truncate(data, lat.m_lo), lat.m_lo)
    return lat


def pieces_at_working_level(lat: ClassLattice, cid: int) -> tuple:
    """The Goursat pieces of class cid read from its representative at
    m_lo, member by member: the kernel is SO(2)/O(2) when it holds every
    rotation there."""
    m = lat.m_lo
    t, refl, ge = lat.decode(lat.representative(cid, m), m)
    rot, o2 = int(np.count_nonzero(~refl & (ge == 0))), lat.classes[cid].o2
    has_refl = bool(np.any(refl & (ge == 0)))
    if rot == m:
        kernel = O2Desc("O2") if has_refl else O2Desc("SO2")
    else:
        kernel = O2Desc("D", rot) if has_refl else O2Desc("Z", rot)
    return (o2, kernel, tuple(sorted(set(ge.tolist()))),
            tuple(sorted(set(ge[~refl & (t == 0)].tolist()))))


@pytest.mark.parametrize("gamma_index", range(len(GAMMAS)), ids=lambda i: str(GAMMAS[i]))
def test_goursat_pieces_are_read_from_the_working_level(gamma_index):
    lat = screened_lattice(gamma_index)
    kinds = set()
    for cid in range(len(lat.classes)):
        assert tuple(lat._goursat[cid]) == pieces_at_working_level(lat, cid)
        kinds.add(lat._goursat[cid].kernel.kind)
    assert {"O2", "SO2", "D"} <= kinds


def test_o2_rule_is_the_scanned_containment():
    # Z_a, D_a for a | 12, SO(2) and O(2), each with trivial Gamma x Z2
    # part: one has a conjugate inside another exactly where the scan finds
    # a conjugate containing it, at each level (a count in a class of
    # infinite Weyl group grows with the level)
    lat = ClassLattice("cyclic", 1, 48)
    m = lat.m_lo
    ids = []
    for a in (1, 2, 3, 4, 6, 12, m):
        rot = [lat.encode(t, False, 0, m) for t in range(0, m, m // a)]
        for members in (rot, rot + [lat.encode(t, True, 0, m) for t in range(0, m, m // a)]):
            ids.append(lat.ensure_handle(members, m))
    assert len({lat.classes[c].o2 for c in ids}) == 14
    for i in ids:
        for j in ids:
            within = lat.classes[i].o2.conjugate_into(lat.classes[j].o2)
            for level in (lat.m_lo, lat.m_hi):
                assert within == (lat._n_count_at(i, j, level) > 0), (lat.labels[i],
                                                                       lat.labels[j], level)


@pytest.mark.parametrize("gamma_index", range(len(GAMMAS)), ids=lambda i: str(GAMMAS[i]))
def test_screened_counts_are_zero(gamma_index):
    # every pair the screen answers scans 0 at m_lo and m_hi, and 0 exactly
    # where both Weyl groups are finite; pairs of the amalgamated O(2)-type
    # classes are among them
    lat = screened_lattice(gamma_index)
    amalgams = {c for c, d in enumerate(lat.classes) if d.o2.kind == "O2"
                and lat._goursat[c].fibre != lat._goursat[c].projection}
    screened = with_amalgam = 0
    for i in range(len(lat.classes)):
        for j in range(len(lat.classes)):
            if lat._pieces_fit(i, j):
                continue
            screened += 1
            with_amalgam += bool({i, j} & amalgams)
            assert two_level_n_count(lat, i, j) == 0
            if lat.finite_weyl(i) and lat.finite_weyl(j):
                assert lat.exact_n_count(i, j) == 0
            assert lat.n_count(i, j) == lat.checked_n_count(i, j) == 0
    assert with_amalgam or not index_two_pairs(*GAMMAS[gamma_index])
    assert screened


@pytest.mark.parametrize("gamma_index", range(len(GAMMAS)), ids=lambda i: str(GAMMAS[i]))
def test_n_count_equals_the_two_level_scan(gamma_index):
    # every pair, screened or scanned at its own levels 4·lcm(folds) and
    # twice that, counts as the scan of the full-group orbits at m_lo and
    # m_hi; pairs of each kind are met
    lat = screened_lattice(gamma_index)
    ids = range(len(lat.classes))
    seen = set()
    for i in ids:
        for j in ids:
            count = lat.n_count(i, j)
            assert count == two_level_n_count(lat, i, j), (lat.labels[i], lat.labels[j])
            seen.add((lat._pieces_fit(i, j), count > 0))
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("gamma_index", range(len(GAMMAS)), ids=lambda i: str(GAMMAS[i]))
def test_amalgamated_classes_have_their_exact_counts(gamma_index):
    # the amalgamated O(2)-type classes, whose rotation and reflection
    # fibres differ, against every class of finite Weyl group: the
    # truncation-free exact_weyl and exact_n_count equal the scan
    lat = screened_lattice(gamma_index)
    finite = [c for c in range(len(lat.classes)) if lat.finite_weyl(c)]
    amalgams = [c for c in finite if lat._goursat[c].kernel.kind == "SO2"
                and lat.classes[c].o2.kind == "O2"]
    assert amalgams
    for a in amalgams:
        assert lat.exact_weyl(a) == lat.weyl(a)
        for c in finite:
            assert lat.exact_n_count(a, c) == lat.n_count(a, c)
            assert lat.exact_n_count(c, a) == lat.n_count(c, a)


def test_checked_n_count_refuses_a_screened_pair_that_scans_nonzero(monkeypatch):
    # with the screen answering every pair, the count of (G) in itself is
    # 0 by the pieces but 1 by the scan
    lat = ClassLattice("dihedral", 8, 32)
    monkeypatch.setattr(ClassLattice, "_pieces_fit", lambda self, i, j: False)
    assert lat.n_count(0, 0) == 0
    with pytest.raises(TruncationInstability, match=r"n\(\(G\),\(G\)\) is 0 by its Goursat "
                                                    "pieces but 1 at both levels"):
        lat.checked_n_count(0, 0)


def test_lookup_memo_answers_as_the_orbits():
    # full-group orbit rows, as a list, a tuple, an unsorted int64 array
    # and a big-endian int32 row, each twice: the memo gives the class of
    # the orbit, and no other level is searched
    lat = screened_lattice(GAMMAS.index(("dihedral", 2)))
    rng = np.random.default_rng(0)
    for cid in range(len(lat.classes)):
        for level in (lat.m_lo, lat.m_hi):
            rows = full_orbit(lat, cid, level)
            for row in rows[rng.permutation(len(rows))[:3]]:
                shuffled = rng.permutation(row.astype(np.int64))
                for members in (shuffled.tolist(), tuple(shuffled.tolist()), shuffled,
                                row.astype(">i4")):
                    for _ in range(2):
                        assert lat.lookup(members, level) == (cid, lat.classes[cid].o2)
                assert lat._memo[(level, np.sort(shuffled).astype(np.int32).tobytes())] == cid
                for other in (lat.m_sample // 2, 4 * lat.m_lo):
                    with pytest.raises(InadmissibleLevel):
                        lat.lookup(row, other)


def test_lookup_memo_refuses_a_hit_above_the_fold_limit_on_every_visit():
    # Z16 interned at level 64 (fold 16 = 64 // 4): its level-32 truncation
    # is refused by the level check each time and never kept in the memo,
    # while its level-64 one is found and kept
    lat = ClassLattice("dihedral", 8, 32)
    cid = lat.ensure_handle([lat.encode(4 * t, False, 0, lat.m_hi) for t in range(16)], lat.m_hi)
    row = lat.representative(cid, lat.m_lo)
    for _ in range(3):
        with pytest.raises(TruncationInstability, match="fold 16 too close to truncation level 32"):
            lat.lookup(row, lat.m_lo)
    assert lat._memo == {}
    hi = lat.representative(cid, lat.m_hi)
    assert lat.lookup(hi, lat.m_hi) == (cid, O2Desc("Z", 16))
    assert lat._memo == {(lat.m_hi, hi.tobytes()): cid}


def test_lookup_memo_keeps_no_refused_or_missed_set():
    # a set the level check refuses, and a subgroup no class holds yet,
    # leave the memo as it was
    lat = ClassLattice("dihedral", 8, 32)
    m = lat.m_lo
    memo = dict(lat._memo)
    close = [lat.encode(t, False, 0, m) for t in range(0, m, 2)]  # fold 16 > 32 // 4
    with pytest.raises(TruncationInstability):
        lat.lookup(close, m)
    assert lat.lookup([0, lat.encode(m // 2, False, 0, m)], m) == (None, O2Desc("Z", 2))
    assert lat._memo == memo
