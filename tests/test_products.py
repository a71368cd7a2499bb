"""Class products against the full double-coset enumeration.

ClassLattice.product_classes takes its double-coset representatives from
two places.  When H or K is of O(2)- or SO(2)-type it contains
N = SO(2) x 1, which is normal, so the representatives are those of the
quotient G/N = Z2 x Gamma x Z2, lifted to the level; when H or K also has a
finite O(2)-part, the intersections H ∩ xKx^-1 with no reflection are
skipped.  When both have a finite O(2)-part, only the double cosets meeting
the reflection conjugators of the factors are visited.  The truncation's
own enumeration is the oracle of both: the quotient's representatives are
those of double_cosets on the truncation, and the oracle product here
visits every double coset there and skips the intersections that lift to a
cyclic fold (infinite Weyl group), which are the intersections either
route skips or never forms.

The multiplication recurrence of the Burnside ring over exact Weyl orders
and containment counts (oracles.mark_product) is a second oracle, with no
truncation and no double coset."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import mark_product
from revdeg import lattice as lattice_module
from revdeg.degrees import DegreeEngine
from revdeg.groups import ProductGroup, closure, conjugate_members, coset_intersections, double_cosets
from revdeg.lattice import ClassLattice, TruncationInstability, level_for_modes
from revdeg.spectra import LinearizationSpec


def is_cyclic_fold(lat, members, level) -> bool:
    """Whether lift gives a cyclic fold (finite rotations, no reflection)."""
    return lat.lift(members, level).o2.kind == "Z"


def oracle_product(lat, i, j):
    """(i)*(j) over every double coset at both levels, cyclic folds skipped
    through lift; cached like product_classes, so it can stand in for it."""
    key = (min(i, j), max(i, j))
    if key in lat._mul_cache:
        return dict(lat._mul_cache[key])
    results = []
    for level in (lat.m_lo, lat.m_hi):
        g = lat.group_at(level)
        h, k = (tuple(lat._rep_array(c, level).tolist()) for c in (i, j))
        coeffs = {}
        for x in double_cosets(g, h, k):
            inter = tuple(sorted(set(h) & set(conjugate_members(g, x, k).tolist())))
            if is_cyclic_fold(lat, inter, level):
                continue
            cid = lat._find_class(inter, level)
            if cid is None:
                cid = lat.ensure_handle(inter, level)
                lat.escape_log.append(f"extended working set: {lat.labels[cid]}")
            if lat.finite_weyl(cid):
                coeffs[cid] = coeffs.get(cid, 0) + 1
        results.append(coeffs)
    if results[0] != results[1]:
        raise TruncationInstability("product differs between levels")
    lat._mul_cache[key] = results[0]
    return dict(results[0])


def assert_same_lattice(a, b):
    assert a.labels == b.labels
    assert a.classes == b.classes
    assert a.escape_log == b.escape_log
    assert a._mul_cache == b._mul_cache
    for level in (a.m_lo, a.m_hi):
        for cid in range(len(a.classes)):
            assert np.array_equal(a._rep_array(cid, level), b._rep_array(cid, level))


def test_oracle_skips_exactly_cyclic_folds():
    # every rotation fold d | M with finite parts, and the same with a
    # reflection: the oracle skips exactly where lift returns a cyclic fold
    # without raising (d <= M/4); d = M/2 raises, d = M is SO(2)
    lat = ClassLattice("dihedral", 8, 32)
    m = lat.m_lo
    for d in (1, 2, 4, 8, 16, 32):
        for ges in ((0,), (0, 1)):
            rot = [lat.encode(t * (m // d), False, ge, m) for t in range(d) for ge in ges]
            for members in (rot, rot + [lat.encode(t * (m // d), True, ge, m)
                                        for t in range(d) for ge in ges]):
                members = tuple(sorted(members))
                try:
                    skipped = is_cyclic_fold(lat, members, m)
                except TruncationInstability:
                    skipped = False
                assert skipped == (d <= m // 4 and len(members) == d * len(ges))


def test_reflection_route_matches_full_enumeration(monkeypatch, natural):
    # the omega_d8_m64 workload's products (omega for mu = -13/2, modes 0-2)
    # and every product of the mode-0/1/2 basic degrees: the same
    # coefficients, classes, ids, labels and escapes as the oracle route
    def products():
        eng = DegreeEngine("dihedral", 8, base_level=64)
        spec = LinearizationSpec(1, {natural: (Fraction(-13, 2),)}, {natural: 1})
        eng.existence_analysis(spec)
        degs = [eng.basic_degree(k, natural) for k in (0, 1, 2)]
        for a in degs:
            for b in degs:
                a.multiply(b)
        return eng.lattice

    reflection = products()
    monkeypatch.setattr(ClassLattice, "product_classes", oracle_product)
    full = products()
    assert len(reflection._mul_cache) > 100
    assert_same_lattice(reflection, full)


GAMMAS = [("dihedral", n) for n in range(1, 7)] + [("cyclic", n) for n in range(1, 7)]
# (rotation step: none, one grid step, a quarter or half turn; reflection?;
# Gamma x Z2 index): a one-step rotation with trivial Gamma x Z2 part makes
# an SO(2)/O(2)-type subgroup, the turns small folds
GENERATORS = st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                                st.one_of(st.just(0), st.integers(0, 23))),
                      min_size=1, max_size=3)
# which of H and K get the generator (one grid step, rotation, identity of
# Gamma x Z2), so contain SO(2) and are of O(2)/SO(2)-type: neither, H, K
# or both, sampled evenly, so about three examples in four take the
# quotient route and one in four has only what GENERATORS draws
FORCED_SO2 = st.sampled_from([(False, False), (True, False), (False, True), (True, True)])


@given(st.integers(0, len(GAMMAS) - 1), st.sampled_from([8, 16]), GENERATORS, GENERATORS,
       FORCED_SO2)
@settings(max_examples=150, deadline=None)
def test_reflection_route_matches_oracle_on_random_pairs(gamma_index, level, gens_h, gens_k,
                                                         forced):
    # the same two subgroups interned in two fresh lattices; the library
    # route on one and the oracle on the other must agree, down to the
    # classes a product adds and the refusals
    gamma = GAMMAS[gamma_index]
    steps = [0, 1, level // 4, level // 2]
    gens_h, gens_k = (gens + [(1, False, 0)] * f for gens, f in zip((gens_h, gens_k), forced))
    lats = [ClassLattice(*gamma, level), ClassLattice(*gamma, level)]
    ids = []
    for lat in lats:
        members = [closure(lat.group_lo, [lat.encode(steps[s], refl, ge % lat.ng, level)
                                          for s, refl, ge in gens])
                   for gens in (gens_h, gens_k)]
        try:
            ids.append([lat.ensure_handle(m, level) for m in members])
        except TruncationInstability:
            assume(False)
    for cid, f in zip(ids[0], forced):
        assert not f or lats[0].classes[cid].o2.kind in ("O2", "SO2")
    try:
        want = oracle_product(lats[1], *ids[1])
    except TruncationInstability:
        with pytest.raises(TruncationInstability):
            lats[0].product_classes(*ids[0])
        return
    assert lats[0].product_classes(*ids[0]) == want
    assert_same_lattice(*lats)


@pytest.mark.parametrize("kind,n", [("dihedral", n) for n in (1, 2, 3, 4, 5, 6, 8)]
                         + [("cyclic", n) for n in range(1, 7)], ids=lambda v: str(v))
def test_quotient_cosets_are_the_truncation_enumeration(kind, n):
    # every pair with an O(2)/SO(2)-type factor among the classes of the
    # mode-0/1/2 basic degrees of every component, at both levels: the
    # representatives lifted from Z2 x Gamma x Z2 are what the truncation
    # enumerates, over the double cosets meeting the reflection conjugators
    # when a factor is finite (after dropping the quotient's cosets whose
    # intersection holds no reflection), else over every double coset.  The
    # rotation subgroups of the O(2)-type classes join them: only two
    # SO(2)-type factors have double cosets of reflections alone
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(3)))
    lat = eng.lattice
    ids = {c for l in range(eng.component_count()) for k in range(3)
           for c, _ in eng.basic_degree(k, l).coeffs}
    for c in [c for c in ids if lat.classes[c].o2.kind == "O2"]:
        rep = lat._rep_array(c, lat.m_lo)
        ids.add(lat.ensure_handle(rep[rep < lat.m_lo * lat.ng], lat.m_lo))
    ids = sorted(ids)
    seen = set()
    for i in ids:
        for j in ids:
            kinds = {lat.classes[c].o2.kind for c in (i, j)}
            if not kinds & {"O2", "SO2"}:
                continue
            seen |= kinds
            finite = bool(kinds & {"D", "Z"})
            for level in (lat.m_lo, lat.m_hi):
                g = lat.group_at(level)
                h, k = lat._rep_array(i, level), lat._rep_array(j, level)
                xs = lat._quotient_cosets(h, k, level).tolist()
                meeting = None
                if finite:
                    meeting = lat._reflection_conjugators(i, j, level)
                    xs = [x for x, inter in zip(xs, coset_intersections(g, h, k, xs))
                          if (inter >= level * lat.ng).any()]
                assert xs == double_cosets(g, h, k, meeting)
    assert {"O2", "SO2", "D"} <= seen


def test_mode_0_by_mode_1_product_solves_no_conjugators(monkeypatch, capsys):
    # burnside-mul deg:0 x deg:1 on D8: every class of the mode-0 degree is
    # of O(2)-type, so each product takes its double cosets from the
    # quotient, and none is enumerated or solved for in a truncation
    from revdeg import cli

    calls = []
    conjugators, cosets = ProductGroup.conjugators, lattice_module.double_cosets

    def recorded_conjugators(self, a, b):
        calls.append("conjugators")
        return conjugators(self, a, b)

    def recorded_cosets(g, *args):
        calls.append(type(g).__name__)
        return cosets(g, *args)

    monkeypatch.setattr(ProductGroup, "conjugators", recorded_conjugators)
    monkeypatch.setattr(lattice_module, "double_cosets", recorded_cosets)
    assert cli.main(["burnside-mul", "--left", "deg:0", "--right", "deg:1"]) == 0
    assert capsys.readouterr().out
    assert calls and set(calls) == {"FiniteGroup"}


def test_unit_product_has_no_coset_pass(monkeypatch, engine8, natural):
    # (G) is the unit: (G)*(K) = (K) when W(K) is finite, else 0
    engine8.basic_degree(0, natural)
    engine8.basic_degree(1, natural)
    lat = engine8.lattice
    want = {}
    for j in range(len(lat.classes)):
        lat._mul_cache.pop((0, j), None)
        want[j] = oracle_product(lat, 0, j)
        lat._mul_cache.pop((0, j))
    monkeypatch.setattr(lattice_module, "coset_intersections", None)
    for j, coeffs in want.items():
        assert lat.product_classes(0, j) == lat.product_classes(j, 0) == coeffs
        assert coeffs == ({j: 1} if lat.finite_weyl(j) else {})
    fresh = ClassLattice("dihedral", 8, 32)
    cyclic = fresh.ensure_handle((0, (fresh.m_lo // 2) * fresh.ng), fresh.m_lo)
    assert fresh.product_classes(cyclic, 0) == {}


def test_product_refuses_fold_too_close_to_level():
    # Z16 interned at level 64 is a fold the level-32 truncation refuses;
    # its product with itself has no reflection to meet and is still refused
    lat = ClassLattice("dihedral", 8, 32)
    cid = lat.ensure_handle(
        tuple(lat.encode(4 * t, False, 0, lat.m_hi) for t in range(16)), lat.m_hi)
    with pytest.raises(TruncationInstability):
        lat.product_classes(cid, cid)
    with pytest.raises(TruncationInstability):
        oracle_product(lat, cid, cid)


def test_product_extends_working_set_and_logs_new_classes():
    # the full-graph class (rotation index 4a paired with gamma rotation a):
    # its self-product needs intermediate graph classes not yet interned,
    # and each is logged once, in interning order
    lat = ClassLattice("dihedral", 8, 32)
    gens = [lat.encode(4, False, 1 * 2, 32),       # (rot 4, r, +1)
            lat.encode(0, True, 8 * 2, 32),        # (refl 0, s, +1)
            lat.encode(16, False, 0 * 2 + 1, 32)]  # (rot pi, 1, -1)
    graph = closure(lat.group_lo, gens)
    assert len(graph) == 32
    cid = lat.ensure_handle(graph, lat.m_lo)
    before = len(lat.classes)
    lat.product_classes(cid, cid)
    new = lat.labels[before:]
    assert new
    assert [e for e in lat.escape_log if e.startswith("extended working set: ")] == \
        [f"extended working set: {label}" for label in new]


@functools.cache
def basic_degree_support(gamma_index: int) -> tuple[ClassLattice, list[int]]:
    """The lattice of an engine at the level of modes 0-2 and the classes
    of the basic degrees of those modes, one engine per Gamma."""
    kind, n = GAMMAS[gamma_index]
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(3)))
    support = {c for k in range(3) for l in range(eng.component_count())
               for c, _ in eng.basic_degree(k, l).coeffs}
    return eng.lattice, sorted(support)


@given(st.integers(0, len(GAMMAS) - 1), st.data())
@settings(max_examples=600, deadline=None)
def test_products_equal_the_multiplication_recurrence(gamma_index, data):
    # over D1..D6 and Z1..Z6, every product of two basic-degree classes is
    # the recurrence's, every division of which is exact
    lat, support = basic_degree_support(gamma_index)
    i, j = (data.draw(st.sampled_from(support)) for _ in range(2))
    assert lat.product_classes(i, j) == mark_product(lat, i, j)
