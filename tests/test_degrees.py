"""Degree pipeline: basic degrees, maximal orbit types, existence analysis."""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

import numpy as np

from oracles import d_sign_oracle
from revdeg import burnside as br
from revdeg.chars import as_int
from revdeg.degrees import STAB_TOL, DegreeEngine, IncompleteLattice, _stabilizer_errors
from revdeg.lattice import TruncationInstability
from revdeg.spectra import LinearizationSpec, spectral_summary

# the honest seven-term mode-1 basic degree of the octagonal example
DEG11_EXPECTED = {
    "(G)": 1,
    "(D2 ^1 x_D2 ^Z2m D2tp)": 1,
    "(D2 ^1 x_D2 ^Z2m D2p)": 1,
    "(D2 ^D1 x_Z2 ^Z2m Z2p)": 1,
    "(D2 ^D1 x_Z2 ^D2td D2tp)": -1,
    "(D2 ^D1 x_Z2 ^D2d D2p)": -1,
    "(D8 ^1 x_D8 ^Z2m D8p)": -1,
}

DEG01_EXPECTED = {
    "(G)": 1,
    "(O(2) x Z2m)": 1,
    "(O(2) x D2d)": -1,
    "(O(2) x D2td)": -1,
}

MAX_ORB_EXPECTED = {
    "(D2 ^D1 x_Z2 ^D2td D2tp)",
    "(D2 ^D1 x_Z2 ^D2d D2p)",
    "(D8 ^1 x_D8 ^Z2m D8p)",
}


def labeled_dict(e):
    return dict(e.labeled())


def test_basic_degree_mode0(engine8, natural):
    assert labeled_dict(engine8.basic_degree(0, natural)) == DEG01_EXPECTED


def test_basic_degree_mode1(engine8, natural):
    assert labeled_dict(engine8.basic_degree(1, natural)) == DEG11_EXPECTED


def test_basic_degrees_square_to_unit(engine8, natural):
    for k in (0, 1):
        d = engine8.basic_degree(k, natural)
        assert d.multiply(d).labeled() == [("(G)", 1)]


def test_mode4_basic_degrees_square_to_unit_at_level_384():
    # |G| = 49,152 at level 2M = 768: a dense int32 Cayley table would take
    # 9 GiB; the truncation groups multiply by index arithmetic instead
    code = """
import resource
from revdeg.degrees import DegreeEngine
eng = DegreeEngine("dihedral", 8, base_level=384)
for l in range(eng.component_count()):
    d = eng.basic_degree(4, l)
    assert d.multiply(d).labeled() == [("(G)", 1)], l
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) * 1024 < 512 * 2 ** 20  # ru_maxrss is in KiB on Linux


def test_a_run_retains_no_matrices_and_no_row_keys():
    # after the analysis nothing of size |G|·d² is left, and the lattice
    # keeps no per-row array beside its orbits, which are the class index.
    # Live memory was 4.1 MiB when the engine kept every component's
    # matrices (1.1 MiB) and a bytes key per orbit row (1.4 MiB), 1.65 MiB
    # with a 16-byte fingerprint index entry per row, and 1.4 MiB with none
    tracemalloc.start()
    try:
        eng = DegreeEngine("dihedral", 8, base_level=64)
        nat = eng.natural_component()
        eng.existence_analysis(LinearizationSpec(1, {nat: (F(-5),)}, {nat: 1}))
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live <= 2.5 * 2 ** 20
    lat = eng.lattice
    arrays = [name for name, v in vars(lat).items()
              if isinstance(v, np.ndarray) or (isinstance(v, dict) and any(
                  isinstance(a, np.ndarray) for a in v.values()))]
    assert arrays == ["_orbits"]


def test_mode0_maximal_types(engine8, natural):
    mots = {engine8.lattice.labels[c] for c in engine8.maximal_orbit_types(0, natural)}
    assert mots == {"(O(2) x D2d)", "(O(2) x D2td)"}


def test_mode1_maximal_types(engine8, natural):
    mots = {engine8.lattice.labels[c] for c in engine8.maximal_orbit_types(1, natural)}
    assert mots == MAX_ORB_EXPECTED


def test_goursat_data_of_maximal_types(engine8, natural):
    # the two finite-fold classes: H = D2, Z = D1, L = Z2; the third is the
    # full graph D8 x_{D8} D8p over the central kernel
    lat = engine8.lattice
    for cid in engine8.maximal_orbit_types(1, natural):
        data = lat.classes[cid]
        if data.o2.fold == 2:
            assert data.truncated_order(lat.m_lo) == 16
        else:
            assert data.o2.fold == 8
            assert data.truncated_order(lat.m_lo) == 32
        assert engine8.fixed_dim(1, natural, cid) == 1


def test_frak_n_values(engine8, natural):
    spec = LinearizationSpec(1, {natural: (F(-3),)}, {natural: 1})
    summ = spectral_summary(spec)
    for cid in engine8.maximal_orbit_types(1, natural):
        assert engine8.frak_n(cid, 1, summ) == 1
    # doubling the multiplicity makes every parity even
    spec2 = LinearizationSpec(1, {natural: (F(-3),)}, {natural: 2})
    summ2 = spectral_summary(spec2)
    for cid in engine8.maximal_orbit_types(1, natural):
        assert engine8.frak_n(cid, 1, summ2) % 2 == 0


def test_existence_analysis_certificates(engine8, natural):
    spec = LinearizationSpec(1, {natural: (F(-3),)}, {natural: 1})
    rep = engine8.existence_analysis(spec)
    assert not rep.degenerate
    assert len(rep.certificates) == 3
    assert {c.label for c in rep.certificates} == MAX_ORB_EXPECTED
    assert all(c.fold == 1 for c in rep.certificates)
    assert all(c.non_constant for c in rep.certificates)
    assert all(c.extended_orbit_type for c in rep.certificates)
    assert rep.omega is not None and rep.omega.as_dict().get(0, 0) == 0


def test_no_negative_spectrum_gives_unit_degree(engine8, natural):
    spec = LinearizationSpec(1, {natural: (F(1),)}, {natural: 1})
    summ = spectral_summary(spec)
    assert summ.negative == ()
    deg = engine8.degree_of_linearization(summ)
    assert deg.labeled() == [("(G)", 1)]
    rep = engine8.existence_analysis(spec)
    assert rep.omega.coeffs == ()
    assert rep.certificates == []


def test_even_multiplicity_collapses(engine8, natural):
    spec = LinearizationSpec(1, {natural: (F(-3),)}, {natural: 2})
    deg = engine8.degree_of_linearization(spectral_summary(spec))
    assert deg.labeled() == [("(G)", 1)]


def test_degenerate_path(natural):
    # the degenerate fold s = 2 probes mode 2, whose graph classes fold at 16,
    # so this needs the level-64 truncation
    eng = DegreeEngine("dihedral", 8, base_level=64)
    spec = LinearizationSpec(1, {natural: (F(-1),)}, {natural: 1})  # xi_1 = 0
    rep = eng.existence_analysis(spec)
    assert rep.degenerate
    assert rep.degenerate_fold == 2
    assert rep.omega is None
    # modes tested are the odd multiples of s up to the cutoff; no negative
    # spectrum at those modes here, so no certificates
    assert all(p % 2 == 0 for p in rep.parities.values())
    assert rep.certificates == []


def test_route_equivalence_worked_example(engine8, natural):
    spec = LinearizationSpec(1, {natural: (F(-3),)}, {natural: 1})
    summ = spectral_summary(spec)
    # degree_of_linearization raises RouteDisagreement unless both routes agree
    deg = engine8.degree_of_linearization(summ)
    direct = engine8._degree_direct(summ)
    assert deg.coeffs == direct.coeffs


def test_sign_oracle_worked_example(engine8, natural):
    spec = LinearizationSpec(1, {natural: (F(-3),)}, {natural: 1})
    summ = spectral_summary(spec)
    lat = engine8.lattice
    engine8.basic_degree(1, natural)
    for cid in range(len(lat.classes)):
        if not lat.finite_weyl(cid):
            continue
        parity = sum(m * engine8.fixed_dim(k, l, cid)
                     for (k, l), m in summ.multiplicities.items() if m)
        assert d_sign_oracle(engine8, spec, cid, summ) == (-1) ** parity


def test_gamma_trivial_group(tmp_path):
    # Gamma = 1: G = O(2) x Z2; single minus component of dimension 1
    eng = DegreeEngine("cyclic", 1, base_level=8)
    assert eng.component_count() == 1
    d = eng.basic_degree(1, 0)
    labels = dict(d.labeled())
    assert labels["(G)"] == 1
    assert len(labels) == 2  # (G) and one maximal type
    assert d.multiply(d).labeled() == [("(G)", 1)]


def test_gamma_trivial_minus_component(engine8):
    # k = 0 on the Gamma-trivial antipodal line: a single sign flip
    d = engine8.basic_degree(0, 0)
    assert dict(d.labeled()) == {"(G)": 1, "(O(2) x D8)": -1}
    assert d.multiply(d).labeled() == [("(G)", 1)]


def _isotropy_run(kind, n, base_level, modes):
    """isotropy_classes of every (mode, component), or the refusal's type,
    and the lattice the run leaves behind."""
    eng = DegreeEngine(kind, n, base_level=base_level)
    iso = {}
    for k in modes:
        for l in range(eng.component_count()):
            try:
                iso[(k, l)] = eng.isotropy_classes(k, l)
            except TruncationInstability as e:
                iso[(k, l)] = type(e).__name__
    return iso, eng.lattice


@pytest.mark.parametrize("kind,n,base_level,modes", [
    ("dihedral", 8, 64, (0, 1, 2)),
    ("dihedral", 3, None, (0, 1, 2)),
    ("cyclic", 4, None, (0, 1, 2)),
])
def test_stabilizer_memo_keeps_ids_labels_and_classes(monkeypatch, kind, n, base_level, modes):
    # the same runs with the memo emptied before every lookup, so that
    # every sampled stabilizer is closed, lifted and interned again
    visits = []
    memoized = DegreeEngine._class_of_stabilizer

    def counted(self, g, members, level):
        visits.append(tuple(members.tolist()))
        return memoized(self, g, members, level)

    def bypassed(self, g, members, level):
        self._stab_class.clear()
        return memoized(self, g, members, level)

    monkeypatch.setattr(DegreeEngine, "_class_of_stabilizer", counted)
    iso, lat = _isotropy_run(kind, n, base_level, modes)
    assert len(set(visits)) < len(visits)  # the memo was hit
    monkeypatch.setattr(DegreeEngine, "_class_of_stabilizer", bypassed)
    iso_ref, lat_ref = _isotropy_run(kind, n, base_level, modes)
    assert iso == iso_ref
    assert lat.labels == lat_ref.labels
    assert lat.classes == lat_ref.classes
    for level in (lat.m_lo, lat.m_hi):
        for cid in range(len(lat.classes)):
            assert np.array_equal(lat._rep_array(cid, level), lat_ref._rep_array(cid, level))


def test_unclosed_stabilizer_raises_on_every_visit(monkeypatch):
    # mode 1 samples at m_sample = 8, below m_lo = 16; {identity, rotation
    # by one grid step there} is not closed; the refusal is not memoized,
    # so the next call refuses again
    eng = DegreeEngine("dihedral", 2, base_level=16)
    lat = eng.lattice
    assert lat.m_sample == 8 < lat.m_lo
    step = lat.ng
    monkeypatch.setattr(DegreeEngine, "_stabilizer",
                        lambda self, mats, p: np.array([0, step]))
    for _ in range(2):
        with pytest.raises(IncompleteLattice, match="not closed"):
            eng.isotropy_classes(1, 0)
    assert (lat.m_sample, np.array([0, step], dtype=np.int32).tobytes()) not in eng._stab_class


def test_full_fold_below_the_working_level_raises(monkeypatch):
    # every rotation of m_sample = 8 (paired with the identity of Gamma x
    # Z2) is a subgroup there, but could be SO(2) or the fold 8 of m_lo;
    # no mode-1 stabilizer is either, so the sampler refuses it
    eng = DegreeEngine("dihedral", 2, base_level=16)
    lat = eng.lattice
    rotations = np.arange(lat.m_sample) * lat.ng
    monkeypatch.setattr(DegreeEngine, "_stabilizer", lambda self, mats, p: rotations)
    for _ in range(2):
        with pytest.raises(IncompleteLattice, match="every rotation"):
            eng.isotropy_classes(1, 0)
    assert len(lat.classes) == 1


def stabilizer_errors_reference(mats, p):
    """The error of every element from |G| stacked products M_g p, p a point
    or a matrix of points: the reference for DegreeEngine._stabilizer, which
    uses one 2-D product."""
    return np.abs(mats @ p - p).reshape(len(mats), -1).max(axis=1)


STABILIZER_CASES = ([("dihedral", n, None) for n in range(1, 7)]
                    + [("cyclic", n, None) for n in range(1, 7)]
                    + [("dihedral", 8, 64)])


def _recorded_stabilizer_inputs(monkeypatch, kind, n, base_level):
    """(mats, p, members) of every _stabilizer call of modes 0-2: the
    structured sample points, the kernel's identity matrix and every fixed
    space's projector; at least one matrix input was seen."""
    calls = []
    stabilizer = DegreeEngine._stabilizer

    def recorded(self, mats, p):
        members = stabilizer(self, mats, p)
        calls.append((mats, p, members))
        return members

    monkeypatch.setattr(DegreeEngine, "_stabilizer", recorded)
    _isotropy_run(kind, n, base_level, (0, 1, 2))
    assert any(p.ndim == 2 for _, p, _ in calls)
    return calls


@pytest.mark.parametrize("kind,n,base_level", STABILIZER_CASES)
def test_stabilizer_decisions_match_stacked_reference_with_margin(
        monkeypatch, kind, n, base_level):
    # every sample point, kernel and fixed-space fixer of modes 0-2: the
    # member set is the stacked reference's, and no error lies near the
    # tolerance (members at most 1e-6 of it, non-members at least 100 times it)
    worst_member, least_other = 0.0, np.inf
    for mats, p, members in _recorded_stabilizer_inputs(monkeypatch, kind, n, base_level):
        tol = STAB_TOL * max(1.0, float(np.abs(p).max()))
        ratio = stabilizer_errors_reference(mats, p) / tol
        assert np.array_equal(members, np.flatnonzero(ratio < 1))
        inside = np.zeros(len(ratio), dtype=bool)
        inside[members] = True
        worst_member = max(worst_member, float(ratio[inside].max()))
        if not inside.all():
            least_other = min(least_other, float(ratio[~inside].min()))
    assert worst_member <= 1e-6
    assert least_other >= 100


@pytest.mark.parametrize("kind,n", [("dihedral", n) for n in range(1, 7)]
                         + [("cyclic", n) for n in range(1, 7)])
def test_stabilizer_errors_equal_row_max_bit_for_bit(monkeypatch, kind, n):
    # every sample point, kernel and fixed-space fixer of modes 0-2: the
    # running maximum over the entries gives the errors of a maximum along
    # the rows of the same 2-D product, to the bit
    for mats, p, _ in _recorded_stabilizer_inputs(monkeypatch, kind, n, None):
        d = p.shape[0]
        want = np.abs((mats.reshape(-1, d) @ p).reshape(len(mats), -1) - p.ravel()).max(axis=1)
        got = _stabilizer_errors(mats, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,n,base_level", STABILIZER_CASES)
def test_exact_generic_stabilizers_equal_seeded_draws(kind, n, base_level):
    # the oracle of the exact sampler: on every component of modes 0-2, the
    # kernel {g : M_g = I} is the stabilizer of a default_rng(11) normal
    # point, and the fixer {g : M_g P_H = P_H} of every class's fixed space
    # is the stabilizer of P_H times default_rng(7) normal draws, one draw
    # per class in class order, over the lattice the run leaves behind
    eng = DegreeEngine(kind, n, base_level=base_level)
    done = []
    for k in (0, 1, 2):
        for l in range(eng.component_count()):
            try:
                eng.isotropy_classes(k, l)
            except TruncationInstability:
                continue
            done.append((k, l))
    level = eng.lattice.m_lo
    checked = 0
    for k, l in done:
        mats = eng.rep_matrices(k, l, level)
        d = mats.shape[1]
        if d > 1:
            point = np.random.default_rng(11).normal(size=d)
            assert np.array_equal(eng._stabilizer(mats, np.eye(d)), eng._stabilizer(mats, point))
        rng = np.random.default_rng(7)
        for cid in range(len(eng.lattice.classes)):
            proj = eng.fixed_projector(k, l, cid, level)
            if round(float(np.trace(proj))) == 0:
                continue
            p = proj @ rng.normal(size=d)
            assert np.array_equal(eng._stabilizer(mats, proj), eng._stabilizer(mats, p))
            checked += 1
    assert checked


def test_lookup_hit_still_refuses(monkeypatch):
    # Z16 (every fourth rotation) interned at level 64 puts its level-32
    # truncation, too close to level 32, into its orbits; a stabilizer
    # sampled at mode 1 equal to that row is refused on the lookup hit,
    # every time, and is not memoized.  D8's m_sample is its m_lo, 32:
    # below m_lo such a row would hold every rotation of m_sample, which
    # the sampler refuses before any lookup
    eng = DegreeEngine("dihedral", 8, base_level=32)
    lat = eng.lattice
    assert lat.m_sample == lat.m_lo
    z16_lo = np.array([lat.encode(2 * t, False, 0, lat.m_lo) for t in range(16)])
    cid = lat.ensure_handle(
        tuple(lat.encode(4 * t, False, 0, lat.m_hi) for t in range(16)), lat.m_hi)
    assert lat._find_class(z16_lo, lat.m_lo) == cid
    monkeypatch.setattr(DegreeEngine, "_stabilizer", lambda self, mats, p: z16_lo)
    for _ in range(2):
        with pytest.raises(TruncationInstability):
            eng.isotropy_classes(1, 0)
    assert (lat.m_sample, z16_lo.astype(np.int32).tobytes()) not in eng._stab_class


def fixed_dim_reference(eng, k, l, cid, level):
    """The character average of DegreeEngine.fixed_dim at one level, member
    by member: the reference for its per-(k, level) rotation factor."""
    lat = eng.lattice
    chi = eng.table.irreps[eng.minus[l]].char
    total = 0.0
    for idx in lat._rep_array(cid, level).tolist():
        o2, ge = divmod(idx, lat.ng)
        rot = 1.0 if k == 0 else (0.0 if o2 >= level else 2 * np.cos(2 * np.pi * k * o2 / level))
        total += rot * chi[ge]
    return total / lat.order_of(cid, level)


@pytest.mark.parametrize("kind,n,base_level", [
    ("dihedral", 8, 32), ("dihedral", 3, None), ("dihedral", 6, None), ("cyclic", 4, None),
])
def test_fixed_dim_matches_member_average(kind, n, base_level):
    # every class interned by the isotropy runs of modes 0-2, on modes 0-3:
    # the dimension at both levels, or the refusal when the levels differ
    eng = DegreeEngine(kind, n, base_level=base_level)
    for k in (0, 1, 2):
        for l in range(eng.component_count()):
            try:
                eng.isotropy_classes(k, l)
            except TruncationInstability:
                pass
    lat = eng.lattice
    eng._fix_cache.clear()
    for cid in range(len(lat.classes)):
        for k in range(4):
            for l in range(eng.component_count()):
                dims = {as_int(fixed_dim_reference(eng, k, l, cid, level))
                        for level in (lat.m_lo, lat.m_hi)}
                if len(dims) == 1:
                    assert eng.fixed_dim(k, l, cid) == dims.pop()
                else:
                    with pytest.raises(TruncationInstability):
                        eng.fixed_dim(k, l, cid)



# the Gammas of the benchmark's gamma_sweep, at their default level 4·lcm(n, 4)
# raised to a multiple of 8n, so that the mode-2 folds of D4 and Z4, which the
# sweep records as refused, fit too
SWEEP_GAMMAS = [("dihedral", n) for n in (1, 2, 3, 4, 6)] + [("cyclic", n) for n in (2, 3, 4, 6)]


def _maximal_as_before(lat, cands) -> list[int]:
    """The maximal filter as each of maximal_orbit_types and
    maximal_orbit_types_mode spelled it before they shared one."""
    return sorted([c for c in cands if not any(d != c and lat.leq(c, d) for d in cands)])


@pytest.mark.parametrize("kind,n", SWEEP_GAMMAS, ids=lambda v: str(v))
def test_maximal_orbit_types_mode_is_maximal_of_union(monkeypatch, kind, n):
    eng = DegreeEngine(kind, n, base_level=4 * math.lcm(n, 4, 2 * n))
    lat = eng.lattice
    comps = list(range(eng.component_count()))
    calls = []
    leq = lat.leq
    monkeypatch.setattr(lat, "leq", lambda i, j: calls.append((i, j)) or leq(i, j))
    for k in (0, 1, 2):
        for l in comps:
            eng.isotropy_classes(k, l)
        calls.clear()
        got = eng.maximal_orbit_types_mode(k, comps)
        got_calls = list(calls)
        # the same leq pairs, in the same order, as before (n_count can refuse)
        calls.clear()
        cands: set[int] = set()
        for l in comps:
            cands.update(_maximal_as_before(
                lat, [c for c in eng.isotropy_classes(k, l) if c != 0]))
        assert got == _maximal_as_before(lat, cands)
        assert got_calls == calls
        # the maximal elements of the per-component union, by n_count
        union = set().union(*(eng.maximal_orbit_types(k, l) for l in comps))
        assert got == sorted(c for c in union
                             if not any(d != c and lat.n_count(c, d) > 0 for d in union))
