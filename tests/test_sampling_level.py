"""The stabilizer sampler below the working level: mode 0 on Gamma x Z2
alone, mode 1 at m_sample = level_for_modes(n, [0, 1]), every stabilizer
carried to m_lo by index arithmetic.  The classes, their ids, labels and
representatives equal those of the sampler run on the truncation at m_lo
(oracles.direct_isotropy), and Theta_k by index arithmetic equals the
preimage of the class's exact angles."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import direct_isotropy
from revdeg.degrees import DegreeEngine
from revdeg.groups import closure
from revdeg.lattice import (
    ClassLattice,
    InadmissibleLevel,
    O2Desc,
    TruncationInstability,
    level_for_modes,
)

CASES = ([("dihedral", n) for n in (1, 2, 3, 4, 5, 6, 8)]
         + [("cyclic", n) for n in range(1, 7)])


@pytest.mark.parametrize("kind,n", CASES, ids=lambda v: str(v))
def test_sampling_below_the_working_level_matches_the_working_level(kind, n):
    # the level of modes 0-2 is above m_sample for every case here
    base = level_for_modes(n, range(3))
    new, old = DegreeEngine(kind, n, base_level=base), DegreeEngine(kind, n, base_level=base)
    assert new.lattice.m_sample == level_for_modes(n, [0, 1]) < base
    for l in range(new.component_count()):
        for k in (0, 1):
            assert new.isotropy_classes(k, l) == direct_isotropy(old, k, l)
    a, b = new.lattice, old.lattice
    assert a.labels == b.labels
    assert a.classes == b.classes
    for level in (a.m_lo, a.m_hi):
        for cid in range(len(a.classes)):
            assert np.array_equal(a._rep_array(cid, level), b._rep_array(cid, level))


def test_sampler_sees_no_more_matrices_than_its_group(monkeypatch):
    # D6: m_lo = 48, m_sample = 24
    eng = DegreeEngine("dihedral", 6)
    lat = eng.lattice
    assert (lat.m_lo, lat.m_sample) == (48, 24)
    seen = []
    stabilizer = DegreeEngine._stabilizer

    def recorded(self, mats, p):
        seen.append(len(mats))
        return stabilizer(self, mats, p)

    monkeypatch.setattr(DegreeEngine, "_stabilizer", recorded)
    for k, order in ((0, lat.ng), (1, lat.group_at(lat.m_sample).order)):
        seen.clear()
        for l in range(eng.component_count()):
            eng.isotropy_classes(k, l)
        assert seen and set(seen) == {order}
    assert lat.group_at(lat.m_sample).order < lat.group_lo.order


@pytest.mark.parametrize("kind,n", [("dihedral", 3), ("dihedral", 6), ("cyclic", 4)],
                         ids=lambda v: str(v))
def test_probe_representatives_are_conjugates_on_the_sampling_grid(kind, n):
    # every class the sampler probes at mode 1: its representative at
    # m_sample, carried back to m_lo, lies in the class's orbit there and
    # has a reflection at axis 0; at mode 0 the probe is the class's
    # Gamma x Z2 projection
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(4)))
    lat = eng.lattice
    for l in range(eng.component_count()):
        eng.isotropy_classes(1, l)
    probed = 0
    for cid in range(len(lat.classes)):
        rep_lo = lat._rep_array(cid, lat.m_lo)
        proj = lat.representative(cid, None)
        assert proj.tolist() == sorted({int(x) % lat.ng for x in rep_lo})
        if not lat.finite_weyl(cid) or not any(
                eng.fixed_dim(1, l, cid) for l in range(eng.component_count())):
            continue
        rep = lat.representative(cid, lat.m_sample)
        assert (rep // lat.ng == lat.m_sample).any()
        assert lat._find_class(lat.at_working_level(rep, lat.m_sample), lat.m_lo) == cid
        probed += 1
    assert probed


def test_representative_refuses_an_index_off_the_sampling_grid():
    # D2 at level 48 (modes 0-3), m_sample 8: D3 x 1 has its rotations at
    # 1/3 turn, which has no index at level 8
    lat = ClassLattice("dihedral", 2, level_for_modes(2, range(4)))
    assert (lat.m_lo, lat.m_sample) == (48, 8)
    m = lat.m_lo
    d3 = closure(lat.group_lo, [lat.encode(m // 3, False, 0, m), lat.encode(0, True, 0, m)])
    cid = lat.ensure_handle(d3, m)
    with pytest.raises(InadmissibleLevel, match="denominator 3"):
        lat.representative(cid, lat.m_sample)


def test_a_level_override_samples_at_the_working_level():
    # 4·lcm(6, 2) = 24 does not divide 36, so mode 1 samples at m_lo
    eng = DegreeEngine("dihedral", 6, base_level=36)
    lat = eng.lattice
    assert lat.m_sample == lat.m_lo == 36
    assert lat.group_at(lat.m_sample) is lat.group_lo
    assert np.array_equal(lat.representative(0, lat.m_sample), lat._rep_array(0, lat.m_lo))


def fraction_fold(lat: ClassLattice, cid: int, k: int):
    """ClassLattice.fold from the class's exact angles: the own-level
    members as (Fraction of a full turn, refl, ge), the preimages
    ((q - q0) % 1 + i)/k of each, q0 the least reflection axis, each written
    at m_lo (refused unless whole) and looked up; the refusal if it
    refuses."""
    data = lat.classes[cid]
    t, refl, ge = lat.decode(data.members, data.level)
    pairs = [(Fraction(int(a), data.level), bool(r), int(g)) for a, r, g in zip(t, refl, ge)]
    q0 = min(q for q, r, _ in pairs if r)
    image = [(((q - q0 if r else q) % 1 + i) / k, r, g) for q, r, g in pairs for i in range(k)]
    try:
        lat._check_fold(O2Desc("D", k * data.o2.fold), lat.m_lo)
        members = []
        for q, r, g in image:
            if (q * lat.m_lo).denominator != 1:
                raise InadmissibleLevel(
                    f"level {lat.m_lo} not divisible by fold denominator {q.denominator}")
            members.append(lat.encode(int(q * lat.m_lo), r, g, lat.m_lo))
        return lat._find_class(members, lat.m_lo)
    except (InadmissibleLevel, TruncationInstability) as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("kind,n,modes", [
    ("dihedral", 2, range(4)), ("dihedral", 3, range(3)), ("dihedral", 4, range(3)),
    ("cyclic", 4, range(4)),
    # default levels, below the modes' lcm: more folds refused
    ("dihedral", 4, None), ("dihedral", 5, None), ("cyclic", 6, None),
], ids=lambda v: str(v))
def test_fold_by_index_arithmetic_equals_the_exact_preimage(kind, n, modes):
    eng = DegreeEngine(kind, n, base_level=None if modes is None else level_for_modes(n, modes))
    lat = eng.lattice
    for l in range(eng.component_count()):
        eng.isotropy_classes(1, l)
    outcomes = set()
    for cid in range(len(lat.classes)):
        if lat.classes[cid].o2.kind != "D":
            continue
        for k in (2, 3, 4):
            try:
                got = lat.fold(cid, k)
            except (InadmissibleLevel, TruncationInstability) as e:
                got = f"{type(e).__name__}: {e}"
            assert got == fraction_fold(lat, cid, k)
            outcomes.add(type(got))
    assert int in outcomes
