"""Group core: construction, subgroup enumeration, conjugacy, counts."""

import functools

import numpy as np
import pytest

from conjugacy import is_conjugate
from revdeg.groups import (
    InvalidGroupParameter,
    _right_coset_least,
    closure,
    conjugate_members,
    direct_product,
    double_cosets,
    gamma_z2_subgroups,
    make_cyclic,
    make_dihedral,
    make_gamma,
    normalizer,
    orbit_walk,
    subgroup_classes,
    subgroup_conjugates,
    weyl_order,
)
from revdeg.lattice import trunc_group
from revdeg.names import gamma_z2_subgroup_name

# the published names of the 38 subgroup classes of D8 x Z2
D8XZ2_NAME_LIST = [
    "Z1", "Z2", "D1tz", "D1t", "D1z", "Z1p", "Z2m", "D1", "D2", "Z4d",
    "D2z", "Z2p", "D2td", "D1tp", "D1p", "Z4", "D2t", "D2tz", "D2d",
    "Z4p", "D4tz", "D4t", "D4", "D2p", "Z8", "D4td", "D4d", "D2tp",
    "D4z", "Z8d", "D4dh", "D8", "Z8p", "D8z", "D4p", "D8d", "D4tp", "D8p",
]


def d8xz2():
    return direct_product(make_dihedral(8), make_cyclic(2))


def d8xz2_classes():
    return subgroup_classes(d8xz2(), gamma_z2_subgroups("dihedral", 8))


def element_orders(g) -> np.ndarray:
    """Order of every element, by repeated multiplication."""
    orders = np.zeros(g.order, dtype=np.int64)
    for a in range(g.order):
        k, cur = 1, a
        while cur != 0:
            cur = int(g.mul(cur, a))
            k += 1
        orders[a] = k
    return orders


def check_group_axioms(g) -> None:
    """Raise AssertionError unless ``mul`` and ``inverse`` make a group with
    identity 0."""
    idx = np.arange(g.order)
    assert np.array_equal(g.mul(0, idx), idx)
    assert np.array_equal(g.mul(idx, 0), idx)
    assert np.all(g.mul(idx, g.inverse) == 0)
    # associativity on a random sample (full check is cubic)
    rng = np.random.default_rng(0)
    x, y, z = rng.integers(0, g.order, size=(min(4096, g.order ** 2), 3)).T
    assert np.array_equal(g.mul(g.mul(x, y), z), g.mul(x, g.mul(y, z)))


def orbit_walk_reference(g, start):
    """orbit_walk one generator and one member set at a time, through
    g.conjugate: each round takes the generators in order and, for each,
    the frontier in order."""
    frontier = [start]
    seen = {start}
    out = [start]
    while frontier:
        nxt = []
        for x in g.generators:
            for mem in frontier:
                c = tuple(np.sort(g.conjugate(x, np.asarray(mem, dtype=np.int64))).tolist())
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    out.append(c)
        frontier = nxt
    return out


def containment_count(g, h, kclass) -> int:
    """Number of conjugates of kclass's representative that contain h."""
    hset = set(h)
    return sum(1 for c in subgroup_conjugates(g, kclass.representative)
               if hset <= set(c))


def test_make_dihedral_orders():
    for n in (1, 2, 3, 8):
        g = make_dihedral(n)
        assert g.order == 2 * n
        check_group_axioms(g)


def test_make_dihedral_rejects_zero():
    with pytest.raises(InvalidGroupParameter):
        make_dihedral(0)


def test_make_gamma_rejects_unknown_kind():
    with pytest.raises(InvalidGroupParameter):
        make_gamma("symmetric", 4)


def test_dihedral_1_is_z2():
    g = make_dihedral(1)
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_dihedral_3_involution_census():
    # brute-force order census over the product table
    g = make_dihedral(3)
    orders = element_orders(g)
    refl_orders = orders[3:]
    assert np.all(refl_orders == 2)
    assert int(np.sum(orders == 2)) == 3
    assert g.mul(1, 1) != 0  # nonabelian witness: r has order 3
    assert g.mul(3, 4) != g.mul(4, 3)


def test_direct_product_orders():
    assert d8xz2().order == 32
    k4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert k4.order == 4
    assert int(np.sum(element_orders(k4) == 2)) == 3


def all_subgroups_reference(g):
    """Every subgroup of g by bottom-up closure from cyclic subgroups, one
    ``closure`` call per (subgroup, cyclic subgroup) pair: the reference for
    gamma_z2_subgroups, which writes them down in closed form."""
    cyclics = {closure(g, [a]) for a in range(g.order)}
    found, frontier = set(cyclics), set(cyclics)
    while frontier:
        new = set()
        for mem in frontier:
            for c in cyclics:
                if set(c) <= set(mem):
                    continue
                ext = closure(g, mem + c)
                if ext not in found:
                    new.add(ext)
        found |= new
        frontier = new
    return sorted(found, key=lambda m: (len(m), m))


def subgroup_classes_reference(g, subgroups):
    """(representative, class id, Weyl order, conjugates, name) of every
    class, from every subgroup of g (sorted by order, then members),
    each conjugated by every element of g: the reference for
    subgroup_classes, which walks orbits by generators and forms
    normalizers by cosets."""
    idx = np.arange(g.order)
    classes, seen = [], set()
    for mem in subgroups:  # sorted: a class's first is its lex-min
        if mem in seen:
            continue
        conj = [tuple(r) for r in np.sort(g.conjugate(idx[:, None], np.array(mem)),
                                          axis=1).tolist()]
        seen.update(conj)
        classes.append((mem, conj.count(mem) // len(mem), tuple(sorted(set(conj)))))
    return [(mem, cid, w, conjs, f"o{len(mem)}c{cid}")
            for cid, (mem, w, conjs) in enumerate(classes)]


# Gamma of every Gamma x Z2 whose subgroups are checked against the references
ENUMERATION_GAMMAS = ([("dihedral", n) for n in range(1, 13)]
                      + [("cyclic", n) for n in range(1, 13)]
                      + [("dihedral", 16), ("dihedral", 24), ("cyclic", 24), ("dihedral", 32)])


@functools.cache
def gamma_z2_and_subgroups(kind, n):
    """Gamma x Z2 and its subgroups from all_subgroups_reference."""
    g = direct_product(make_gamma(kind, n), make_cyclic(2))
    return g, all_subgroups_reference(g)


@pytest.mark.parametrize("kind,n", ENUMERATION_GAMMAS)
def test_all_subgroups_match_closure_reference(kind, n):
    g, subs = gamma_z2_and_subgroups(kind, n)
    assert gamma_z2_subgroups(kind, n) == subs


@pytest.mark.parametrize("kind,n", ENUMERATION_GAMMAS)
def test_subgroup_classes_match_reference(kind, n):
    # representatives, ids, Weyl orders, conjugates (so n_conjugates) and
    # fallback names, from the subgroups in any order
    g, subs = gamma_z2_and_subgroups(kind, n)
    classes = subgroup_classes(g, subs[::-1])
    want = subgroup_classes_reference(g, subs)
    assert [(c.representative, c.class_id, c.weyl_order, c.conjugates, c.name)
            for c in classes] == want
    assert [c.n_conjugates for c in classes] == [len(w[3]) for w in want]


def test_subgroup_classes_z2():
    g = make_cyclic(2)
    assert len(subgroup_classes(g, all_subgroups_reference(g))) == 2


def test_subgroup_classes_d8():
    g = make_dihedral(8)
    subs = all_subgroups_reference(g)
    classes = subgroup_classes(g, subs)
    assert len(subs) == 19
    assert len(classes) == 11
    assert sum(c.n_conjugates for c in classes) == len(subs)


def test_subgroup_classes_d8xz2_count():
    assert len(d8xz2_classes()) == 38


def test_subgroup_classes_deterministic():
    a = [c.representative for c in d8xz2_classes()]
    b = [c.representative for c in d8xz2_classes()]
    assert a == b


def test_weyl_orders():
    g = make_dihedral(8)
    whole = tuple(range(16))
    trivial = (0,)
    assert weyl_order(g, whole) == 1
    assert weyl_order(g, trivial) == 16
    refl = closure(g, [8])  # <s>
    assert weyl_order(g, refl) == 2
    assert normalizer(g, refl) == (0, 4, 8, 12)


def test_lagrange_and_closure_invariants():
    # every enumerated subgroup, listed once, divides the order and is
    # closed under products; no closure reference is built
    for kind, n in ENUMERATION_GAMMAS:
        g = direct_product(make_gamma(kind, n), make_cyclic(2))
        subs = gamma_z2_subgroups(kind, n)
        assert len(set(subs)) == len(subs)
        for mem in subs:
            assert g.order % len(mem) == 0
            h = np.asarray(mem)
            prods = np.unique(g.table[np.ix_(h, h)])
            assert prods.tolist() == list(mem)


def test_is_conjugate_reflections_d8():
    g = make_dihedral(8)
    s = closure(g, [8])        # <s>
    r2s = closure(g, [10])     # <r^2 s>
    rs = closure(g, [9])       # <r s>
    assert is_conjugate(g, s, s)
    assert is_conjugate(g, s, r2s)
    assert not is_conjugate(g, s, rs)


def test_containment_counts():
    g = make_dihedral(8)
    classes = subgroup_classes(g, all_subgroups_reference(g))
    whole = [c for c in classes if len(c.representative) == 16][0]
    trivial_h = (0,)
    for c in classes:
        assert containment_count(g, c.representative, whole) == 1
    # n(trivial, (K)) = number of conjugates of K
    for c in classes:
        assert containment_count(g, trivial_h, c) == c.n_conjugates
    # the D2-even class has two conjugates; exactly one contains a fixed <s>
    s = closure(g, [8])
    d2 = closure(g, [8, 4])  # <s, r^4>
    d2_class = [c for c in classes
                if len(c.representative) == 4 and is_conjugate(g, c.representative, d2)][0]
    assert d2_class.n_conjugates == 2
    assert containment_count(g, s, d2_class) == 1
    # pair count cross-check: each conjugate contains 2 reflection subgroups,
    # and the reflection class has 4 members
    refl_class = [c for c in classes
                  if len(c.representative) == 2 and is_conjugate(g, c.representative, s)][0]
    assert refl_class.n_conjugates * containment_count(g, s, d2_class) == 2 * 2


def test_containment_constant_on_class():
    g = make_dihedral(8)
    classes = subgroup_classes(g, all_subgroups_reference(g))
    s = closure(g, [8])
    r4s = closure(g, [12])
    assert is_conjugate(g, s, r4s)
    for c in classes:
        assert containment_count(g, s, c) == containment_count(g, r4s, c)


def test_d8xz2_names_match_published_list():
    names = {gamma_z2_subgroup_name(8, c.representative) for c in d8xz2_classes()}
    assert names == set(D8XZ2_NAME_LIST)
    assert len(names) == 38


def test_d8xz2_specific_names():
    g = d8xz2()
    # element index = gamma*2 + z2; gamma: rotations 0..7, reflections 8..15
    z2m = closure(g, [4 * 2 + 1])          # <(r^4, -1)>
    assert gamma_z2_subgroup_name(8, z2m) == "Z2m"
    z1p = closure(g, [1])                  # <(1, -1)>
    assert gamma_z2_subgroup_name(8, z1p) == "Z1p"
    d2d = closure(g, [8 * 2, 4 * 2 + 1])   # <(s,1), (r^4,-1)>
    assert gamma_z2_subgroup_name(8, d2d) == "D2d"
    d2td = closure(g, [9 * 2, 4 * 2 + 1])  # <(rs,1), (r^4,-1)>
    assert gamma_z2_subgroup_name(8, d2td) == "D2td"
    d8p = tuple(range(32))
    assert gamma_z2_subgroup_name(8, d8p) == "D8p"
    d4dh = closure(g, [2 * 2, 9 * 2, 8 * 2 + 1])  # <(r^2,1),(rs,1),(s,-1)>
    assert gamma_z2_subgroup_name(8, d4dh) == "D4dh"
    z8d = closure(g, [1 * 2 + 1])          # <(r,-1)>
    assert gamma_z2_subgroup_name(8, z8d) == "Z8d"


def test_double_cosets_partition():
    # cosets rebuilt from the returned representatives: they partition G and
    # each representative is the least element of its double coset
    d8, gz = make_dihedral(8), d8xz2()
    cases = [(d8, closure(d8, [8]), closure(d8, [4, 8])),
             (gz, closure(gz, [2 * 8]), closure(gz, [2 * 2, 2 * 9 + 1])),
             (gz, closure(gz, [1]), (0,)),
             (gz, closure(gz, [2]), closure(gz, [2 * 8, 1])),
             (gz, closure(gz, [2 * 4, 2 * 8, 1]), closure(gz, [2 * 9]))]
    for g, h, k in cases:
        h, k = np.asarray(h), np.asarray(k)
        reps = double_cosets(g, h, k)
        cosets = [np.unique(g.table[np.ix_(g.table[h, x], k)]) for x in reps]
        total = np.concatenate(cosets)
        assert sorted(total.tolist()) == list(range(g.order))
        assert [int(c[0]) for c in cosets] == reps


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(1, 10), st.lists(st.integers(0, 19), max_size=4))
@settings(max_examples=40, deadline=None)
def test_closure_is_idempotent_and_lagrange(n, seed):
    g = make_dihedral(n)
    seed = [s % g.order for s in seed]
    h = closure(g, seed)
    assert closure(g, h) == h
    assert g.order % len(h) == 0


@given(st.integers(1, 8), st.lists(st.integers(0, 31), max_size=3))
@settings(max_examples=40, deadline=None)
def test_normalizer_matches_brute_force(n, seed):
    g = direct_product(make_dihedral(n), make_cyclic(2))
    h = closure(g, [s % g.order for s in seed])
    brute = tuple(x for x in range(g.order)
                  if tuple(sorted(g.conjugate(x, a) for a in h)) == h)
    assert normalizer(g, h) == brute
    least = [min(g.mul(a, y) for a in h) for y in range(g.order)]
    assert _right_coset_least(g, h).tolist() == least


def test_normalizer_and_right_cosets_on_every_subgroup():
    # both ways of labelling right cosets (|H|^2 <= |G| and above) on every
    # subgroup of D8 x Z2, normal or not, against the definitions
    g = d8xz2()
    for mem in gamma_z2_subgroups("dihedral", 8):
        least = [min(g.mul(a, y) for a in mem) for y in range(g.order)]
        assert _right_coset_least(g, mem).tolist() == least
        brute = tuple(x for x in range(g.order)
                      if tuple(sorted(g.conjugate(x, a) for a in mem)) == mem)
        assert normalizer(g, mem) == brute


GAMMAS = [make_dihedral(n) for n in range(1, 7)] + [make_cyclic(n) for n in range(1, 7)]


@given(st.sampled_from(GAMMAS), st.sampled_from([4, 8, 12]),
       st.lists(st.integers(0, 10 ** 6), max_size=3))
@settings(max_examples=30, deadline=None)
def test_truncation_group_matches_dense_product(gamma, m, seed):
    # the truncation group multiplies by index arithmetic; the dense table
    # of the same factors is the reference, also for closure, which grows
    # the subgroup through the products of each group
    gz = direct_product(gamma, make_cyclic(2))
    g, dense = trunc_group(gz, m), direct_product(make_dihedral(m), gz)
    assert not hasattr(g, "table")
    assert (g.order, g.generators) == (dense.order, dense.generators)
    idx = np.arange(g.order)
    assert np.array_equal(g.mul(idx[:, None], idx), dense.table)
    assert np.array_equal(g.mul(g.prepare(idx[:, None]), g.prepare(idx)), dense.table)
    assert np.array_equal(g.inverse, dense.inverse)
    assert np.array_equal(g.conjugate(idx[:, None], idx), dense.conjugate(idx[:, None], idx))
    for x, perm in zip(g.generators, g.gen_conjugation_table):
        assert np.array_equal(perm, dense.conjugate(x, idx))
    check_group_axioms(g)
    seed = [s % g.order for s in seed]
    assert closure(g, seed) == closure(dense, seed)


def test_truncation_dihedral_part_matches_make_dihedral():
    # over the trivial group a truncation group is D_n alone, multiplied and
    # conjugated by index arithmetic; make_dihedral's table is the reference
    # on all pairs, for plain and prepared operands
    for n in range(1, 65):
        g, d = trunc_group(make_cyclic(1), n), make_dihedral(n)
        idx = np.arange(2 * n)
        assert (g.order, g.generators) == (d.order, d.generators)
        assert np.array_equal(g.mul(idx[:, None], idx), d.table)
        assert np.array_equal(g.mul(g.prepare(idx[:, None]), g.prepare(idx)), d.table)
        assert np.array_equal(g.conjugate(idx[:, None], idx), d.conjugate(idx[:, None], idx))
        assert np.array_equal(g.inverse, d.inverse)


def test_truncation_dihedral_part_at_a_large_level_matches_rotation_rules():
    # D_n at n = 26,880 (the level of modes 0-7 of D8) on random pairs,
    # against products of (t, reflection bit) pairs: r^t s^e r^u s^f =
    # r^(t + (-1)^e u) s^(e+f); conjugates and inverses follow from them
    n = 26_880
    g = trunc_group(make_cyclic(1), n)

    def index(t, e):
        return t % n + n * e

    def mul(x, y):
        (e, t), (f, u) = divmod(x, n), divmod(y, n)
        return index(t + (-1) ** e * u, e ^ f)

    def inv(x):
        e, t = divmod(x, n)
        return index(t if e else -t, e)

    a, b = np.random.default_rng(11).integers(0, 2 * n, size=(2, 2000))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert g.mul(a, b).tolist() == [mul(x, y) for x, y in pairs]
    assert g.conjugate(a, b).tolist() == [mul(mul(x, y), inv(x)) for x, y in pairs]
    assert g.inverse[a].tolist() == [inv(x) for x in a.tolist()]
    assert all(mul(x, inv(x)) == 0 for x in a.tolist())


def test_truncation_group_holds_no_array_above_linear_size():
    # D8 x Z2 at level 3840 (modes 0-5): every array the group keeps has at
    # most (generators + 2) * |G| entries; a (2M)^2 table of D_M would have
    # 59 M
    g = trunc_group(d8xz2(), 3840)
    bound = (len(g.generators) + 2) * g.order
    sizes = {name: v.size for name, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert "gen_conjugation_table" in sizes
    assert {name: size for name, size in sizes.items() if size > bound} == {}


def test_orbit_walk_matches_per_member_reference():
    # every subgroup of dense Gamma x Z2 groups (n even and odd) and of the
    # trivial group, then subgroups of truncation groups of odd n at two
    # levels: the same orbit as int32 rows in the same order, the sorted
    # start first, each conjugate once
    dense = [direct_product(make_gamma(kind, n), make_cyclic(2))
             for kind, n in (("dihedral", 8), ("dihedral", 3), ("cyclic", 5))]
    cases = [(g, mem) for g in dense + [make_cyclic(1)] for mem in all_subgroups_reference(g)]
    rng = np.random.default_rng(5)
    for gz in dense[1:]:
        for m in (4, 8):
            g = trunc_group(gz, m)
            for _ in range(20):
                seed = rng.integers(0, g.order, size=rng.integers(1, 3)).tolist()
                cases.append((g, closure(g, seed)))
    for g, mem in cases:
        rows = orbit_walk(g, mem[::-1])
        want = orbit_walk_reference(g, mem)
        assert rows.dtype == np.int32 and rows.shape == (len(want), len(mem))
        assert [tuple(r) for r in rows.tolist()] == want


@pytest.mark.parametrize("g", [
    make_cyclic(1), make_dihedral(5), direct_product(make_dihedral(3), make_cyclic(2)),
    trunc_group(direct_product(make_cyclic(3), make_cyclic(2)), 4),
    trunc_group(direct_product(make_dihedral(5), make_cyclic(2)), 8)],
    ids=lambda g: g.name)
def test_generator_conjugations_are_views_of_one_table(g):
    # one read-only int32 table, a row per generator in generator order
    table, idx = g.gen_conjugation_table, np.arange(g.order)
    assert table.dtype == np.int32 and table.shape == (len(g.generators), g.order)
    assert not table.flags.writeable
    for x, row in zip(g.generators, table):
        assert np.array_equal(row, g.conjugate(np.full(g.order, x), idx))
        assert np.array_equal(row, g.conjugate(x, idx))
        assert np.array_equal(conjugate_members(g, x, idx[:, None]).ravel(), row)
    assert np.array_equal(conjugate_members(g, None, idx[:, None])[..., 0], table)


@given(st.sampled_from(GAMMAS), st.sampled_from([4, 8]), st.integers(0, 10 ** 6),
       st.lists(st.integers(0, 10 ** 6), max_size=3))
@settings(max_examples=30, deadline=None)
def test_conjugators_match_brute_force(gamma, m, a, targets):
    # x y x^-1 in b, solved per factor in the truncation group, against a
    # scan of the whole group; one y or several, one target or several
    g = trunc_group(direct_product(gamma, make_cyclic(2)), m)
    a = a % g.order
    ys = [a, (a + 1) % g.order]
    conj = g.conjugate(np.arange(g.order)[:, None], np.array(ys))
    for b in [a, int(g.conjugate(targets[0] % g.order, a)) if targets else 0,
              [t % g.order for t in targets]]:
        hit = np.isin(conj, b)
        assert g.conjugators(a, b).tolist() == np.flatnonzero(hit[:, 0]).tolist()
        assert g.conjugators(ys, b).tolist() == np.flatnonzero(hit.any(axis=1)).tolist()


def test_double_cosets_meeting_match_definition():
    # subgroups of D8 x Z2 and of a truncation group, small and large, so
    # that both labellings (elements, right cosets of H) run; the answer is
    # the least elements of the double cosets that hold a meeting element,
    # in increasing order
    dense = d8xz2()
    trunc = trunc_group(direct_product(make_dihedral(2), make_cyclic(2)), 8)
    rng = np.random.default_rng(3)
    modes = set()
    for g in (dense, trunc):
        subs = [closure(g, rng.integers(0, g.order, size=rng.integers(0, 3)).tolist())
                for _ in range(12)]
        for h in subs:
            for k in subs:
                hs, ks = np.array(h), np.array(k)
                cosets = [frozenset(g.mul(g.mul(hs, x)[:, None], ks).ravel().tolist())
                          for x in range(g.order)]
                meeting = rng.integers(0, g.order, size=rng.integers(0, 6))
                want = sorted({min(cosets[x]) for x in meeting.tolist()})
                assert double_cosets(g, h, k, meeting) == want
                assert double_cosets(g, h, k) == sorted({min(c) for c in cosets})
                modes.add(len(h) * len(k) <= g.order)
    assert modes == {True, False}
