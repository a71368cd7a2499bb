"""Burnside ring: module structure, products, recurrence, finite oracle
(tests/oracles.py)."""

import numpy as np
import pytest

from oracles import brute_orbit_product, finite_product, parse_rendered, reconstruct
from revdeg import burnside as br
from revdeg.burnside import BurnsideElement, InconsistentDegreeData, recurrence, unit
from revdeg.groups import (
    direct_product,
    gamma_z2_subgroups,
    make_cyclic,
    make_dihedral,
    subgroup_classes,
)
from revdeg.lattice import ClassLattice


@pytest.fixture(scope="module")
def lat():
    lat = ClassLattice("dihedral", 8, 32)
    members = [t * lat.ng + ge for t in range(32) for ge in range(lat.ng)]
    lat.ensure_handle(tuple(sorted(members)), 32)  # SO(2) class
    return lat


def test_module_ops(lat):
    e = br.generator(lat, 1)
    zero = BurnsideElement(lat, ())
    assert (e + zero).coeffs == e.coeffs
    assert (e - e).coeffs == ()
    assert (e + e).as_dict() == {1: 2}
    assert (-e).as_dict() == {1: -1}


def test_unit_is_identity(lat):
    g = br.generator(lat, 1)
    assert unit(lat).multiply(g).coeffs == g.coeffs
    assert g.multiply(unit(lat)).coeffs == g.coeffs


def test_so2_squared(lat):
    so2 = br.generator(lat, 1)
    assert lat.labels[1] == "(SO(2) x D8p)"
    assert so2.multiply(so2).labeled() == [("(SO(2) x D8p)", 2)]


def test_recurrence_normalization(lat):
    d = {cid: 1 for cid in range(len(lat.classes)) if lat.finite_weyl(cid)}
    assert recurrence(d, lat).labeled() == [("(G)", 1)]


def test_recurrence_reconstruct_roundtrip(lat):
    ids = [cid for cid in range(len(lat.classes)) if lat.finite_weyl(cid)]
    rng = np.random.default_rng(3)
    e = BurnsideElement.from_dict(lat, {cid: int(rng.integers(-3, 4)) for cid in ids})
    d = reconstruct(e, ids)
    assert recurrence(d, lat).coeffs == e.coeffs


def test_recurrence_rejects_inexact_division(lat):
    d = {cid: 0 for cid in range(len(lat.classes)) if lat.finite_weyl(cid)}
    d[1] = 1  # SO(2) class has Weyl order 2: 1/2 is not integral
    with pytest.raises(InconsistentDegreeData):
        recurrence(d, lat)


def test_finite_oracle_spot_pairs():
    g = direct_product(make_dihedral(8), make_cyclic(2))
    classes = subgroup_classes(g, gamma_z2_subgroups("dihedral", 8))
    whole = max(range(len(classes)), key=lambda i: len(classes[i].representative))
    for i in (0, 5, 17, 30):
        prod = finite_product(g, classes, whole, i)
        assert prod == {i: 1}
    rng = np.random.default_rng(5)
    for _ in range(12):
        i, j = rng.integers(0, len(classes), 2)
        assert finite_product(g, classes, int(i), int(j)) == \
            brute_orbit_product(g, classes, int(i), int(j))


def test_render_parse_roundtrip(lat):
    e = BurnsideElement.from_dict(lat, {0: 1, 1: -2})
    assert parse_rendered(lat, e.render()).coeffs == e.coeffs
    assert parse_rendered(lat, BurnsideElement(lat, ()).render()).coeffs == ()
