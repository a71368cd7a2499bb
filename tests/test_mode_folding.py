"""Modes k >= 2 folded from mode 1 (ClassLattice.fold, the preimage map
Theta_k of the k-fold map of O(2)): the isotropy classes, maximal orbit
types and basic degrees equal those computed at mode k itself by the
stabilizer sampler and the recurrence (oracles.direct_isotropy,
oracles.direct_basic_degree), Theta_2 is multiplicative, and a basic degree
lives on (G) and the isotropy classes."""

import pytest

from oracles import direct_basic_degree, direct_isotropy
from revdeg.burnside import BurnsideElement
from revdeg.degrees import DegreeEngine
from revdeg.groups import closure
from revdeg.lattice import level_for_modes

DIRECT_CASES = ([("dihedral", n) for n in (1, 2, 3, 4, 5, 6, 8)]
                + [("cyclic", n) for n in range(1, 7)])


def top_mode(n: int) -> int:
    return 4 if n <= 4 else 3


def theta(e: BurnsideElement, k: int) -> BurnsideElement:
    lat = e.lattice
    return BurnsideElement.from_dict(lat, {lat.fold(c, k): v for c, v in e.coeffs})


@pytest.mark.parametrize("kind,n", DIRECT_CASES, ids=lambda v: str(v))
def test_folded_modes_equal_the_direct_route(kind, n):
    top = top_mode(n)
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(top + 1)))
    lat = eng.lattice
    for l in range(eng.component_count()):
        for k in range(2, top + 1):
            iso = eng.isotropy_classes(k, l)
            maximal = eng.maximal_orbit_types(k, l)
            labels = eng.basic_degree(k, l).labeled()
            known = len(lat.classes)
            direct = direct_isotropy(eng, k, l)
            # the sampler at mode k met no class the fold had not interned
            assert len(lat.classes) == known
            assert direct == iso
            assert eng._maximal([c for c in direct if c != 0]) == maximal
            assert direct_basic_degree(eng, k, l).labeled() == labels
        # support: every coefficient of a basic degree sits on (G) or on an
        # isotropy class of its mode
        for k in range(top + 1):
            iso = set(eng.isotropy_classes(k, l))
            assert {c for c, _ in eng.basic_degree(k, l).coeffs} <= iso | {0}


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in ("dihedral", "cyclic")
                                    for n in range(1, 5)], ids=lambda v: str(v))
def test_theta_2_is_multiplicative_on_mode_1_basic_degrees(kind, n):
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(3)))
    comps = range(eng.component_count())
    degs = [eng.basic_degree(1, l) for l in comps]
    for i in comps:
        for j in comps[i:]:
            a, b = degs[i], degs[j]
            assert theta(a.multiply(b), 2).coeffs == theta(a, 2).multiply(theta(b, 2)).coeffs


def test_modes_above_one_sample_no_stabilizer(monkeypatch):
    eng = DegreeEngine("dihedral", 8, base_level=level_for_modes(8, range(4)))
    comps = range(eng.component_count())
    for l in comps:
        eng.basic_degree(1, l)

    def refuse(self, mats, p):
        raise AssertionError("stabilizer sampled above mode 1")

    monkeypatch.setattr(DegreeEngine, "_stabilizer", refuse)
    for l in comps:
        eng.basic_degree(3, l)
        eng.maximal_orbit_types(3, l)


def test_fold_fixes_o2_types_and_drops_cyclic_folds():
    eng = DegreeEngine("dihedral", 2, base_level=level_for_modes(2, range(4)))
    lat = eng.lattice
    m = lat.m_lo
    for k in (2, 3):
        assert lat.fold(0, k) == 0
    z = lat.ensure_handle(closure(lat.group_lo, [lat.encode(m // 4, False, 0, m)]), m)
    assert lat.classes[z].o2.kind == "Z"
    assert lat.fold(z, 2) is None
    # a dihedral fold j goes to fold kj over the same Gamma x Z2 projection
    for c in eng.isotropy_classes(1, 0):
        data = lat.classes[c]
        if data.o2.kind != "D":
            continue
        folded = lat.fold(c, 3)
        image = lat.classes[folded]
        assert image.o2.fold == 3 * data.o2.fold
        _, refl, ge = lat.decode(data.members, data.level)
        _, image_refl, image_ge = lat.decode(image.members, image.level)
        assert (~image_refl).sum() == 3 * (~refl).sum()
        assert set(image_ge[image_refl].tolist()) == set(ge[refl].tolist())
        # the same class with its axes turned by one grid step (a conjugate)
        # lifts to the same data, axes turned back to 0, so it folds to the
        # same class
        turned = lat.half_twist(lat.representative(c, m), m)
        assert lat.lift(turned, m) == data
        assert lat.fold(lat.ensure_handle(turned, m), 3) == folded
