"""Domain geometry: curvature, boundary data, condition checks, a-priori bounds."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import octagon_published_curvature, octagon_published_gradient, phi_integral_inv
from revdeg.config import family_spec, load_example
from revdeg.geometry import (
    BoundaryGradientVanishes,
    FFamilySpec,
    GridTooCoarse,
    NotStarShaped,
    PolarTrigPolynomial,
    UnsolvableDomain,
    _grad_xy,
    _grid_pad,
    _hess_xy,
    alpha_bound,
    apriori_m,
    apriori_m_log,
    apriori_n,
    boundary_radius,
    check_conditions,
    circle_domain,
    curvature,
    figure_data,
    grad_norm_on_boundary,
    octagon_domain,
    phi_integral,
    DomainSpec,
)


@pytest.fixture(scope="module")
def octagon():
    return octagon_domain()


def _eta_xy(dom, x, y):
    return float(dom.eta.eval_polar(math.hypot(x, y), math.atan2(y, x)))


def _grad(dom, x, y):
    return tuple(float(v) for v in _grad_xy(dom.eta, x, y))


def test_origin_values(octagon):
    # DomainSpec.validate reads eta(0) to check that the origin is interior
    assert octagon.eta.eval_polar(0.0, 0.0) == -1.0
    assert octagon.eta.eval_polar(0.0, 1.3) == -1.0


def test_circle_values():
    c = circle_domain(1.0)
    assert _eta_xy(c, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert _grad(c, 1.0, 0.0) == pytest.approx((2.0, 0.0), abs=1e-12)
    for th in (0.0, 0.7, 2.0):
        assert boundary_radius(c, th) == pytest.approx(1.0, abs=1e-12)
        assert curvature(c, th) == pytest.approx(1.0, abs=1e-12)
        assert grad_norm_on_boundary(c, th) == pytest.approx(2.0, abs=1e-12)
    c3 = circle_domain(3.0)
    assert curvature(c3, 0.3) == pytest.approx(1 / 3, abs=1e-12)
    assert grad_norm_on_boundary(c3, 0.3) == pytest.approx(6.0, abs=1e-12)


def test_octagon_boundary_values(octagon):
    assert boundary_radius(octagon, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert boundary_radius(octagon, math.pi / 8) == pytest.approx((1 / 3) ** 0.25, abs=1e-12)
    assert curvature(octagon, 0.0) == pytest.approx(17.0, abs=1e-9)
    assert grad_norm_on_boundary(octagon, 0.0) == pytest.approx(4.0, abs=1e-9)


def test_octagon_symmetry(octagon):
    for th in np.linspace(0.1, 0.6, 5):
        k0 = curvature(octagon, float(th))
        assert curvature(octagon, float(th) + math.pi / 4) == pytest.approx(k0, abs=1e-9)
        assert curvature(octagon, -float(th)) == pytest.approx(k0, abs=1e-9)
        g0 = grad_norm_on_boundary(octagon, float(th))
        assert grad_norm_on_boundary(octagon, float(th) + math.pi / 4) == \
            pytest.approx(g0, abs=1e-9)


def test_curvature_matches_published_display(octagon):
    for th in np.linspace(0.0, 2 * math.pi, 500):
        assert curvature(octagon, float(th)) == \
            pytest.approx(octagon_published_curvature(float(th)), abs=1e-9)


def test_gradient_display_is_inconsistent_with_eta(octagon):
    # the published |grad eta| display agrees at the symmetry angles but not
    # in between; the engine keeps the honest derivative
    assert octagon_published_gradient(0.0) == pytest.approx(4.0, abs=1e-12)
    honest = grad_norm_on_boundary(octagon, math.pi / 8)
    display = octagon_published_gradient(math.pi / 8)
    assert honest == pytest.approx(5.2642960518, abs=1e-6)
    assert display == pytest.approx(6.9282032303, abs=1e-6)


def test_gradient_matches_finite_differences(octagon):
    rng = np.random.default_rng(2)
    h = 1e-5
    checked = 0
    while checked < 100:
        x, y = rng.uniform(-0.9, 0.9, 2)
        r = math.hypot(x, y)
        if r < 0.1 or _eta_xy(octagon, x, y) > -1e-3:
            continue
        gx, gy = _grad(octagon, x, y)
        fx = (_eta_xy(octagon, x + h, y) - _eta_xy(octagon, x - h, y)) / (2 * h)
        fy = (_eta_xy(octagon, x, y + h) - _eta_xy(octagon, x, y - h)) / (2 * h)
        scale = max(1.0, abs(gx), abs(gy))
        assert abs(gx - fx) / scale < 1e-6
        assert abs(gy - fy) / scale < 1e-6
        checked += 1


def test_hessian_matches_finite_differences(octagon):
    rng = np.random.default_rng(4)
    h = 1e-5
    checked = 0
    while checked < 50:
        x, y = rng.uniform(-0.9, 0.9, 2)
        if math.hypot(x, y) < 0.15:
            continue
        xx, xy, yy = (float(v) for v in _hess_xy(octagon.eta, x, y))
        gxp = _grad(octagon, x + h, y)
        gxm = _grad(octagon, x - h, y)
        gyp = _grad(octagon, x, y + h)
        gym = _grad(octagon, x, y - h)
        fxx = (gxp[0] - gxm[0]) / (2 * h)
        fxy = (gyp[0] - gym[0]) / (2 * h)
        fyy = (gyp[1] - gym[1]) / (2 * h)
        scale = max(1.0, abs(xx), abs(xy), abs(yy))
        assert abs(xx - fxx) / scale < 1e-5
        assert abs(xy - fxy) / scale < 1e-5
        assert abs(yy - fyy) / scale < 1e-5
        checked += 1


def test_not_star_shaped_error():
    eta = PolarTrigPolynomial.from_list([(1.0, 0, 0, "cos")])  # eta == 1 > 0
    dom = DomainSpec(eta, 1, 1.0)
    with pytest.raises(NotStarShaped):
        boundary_radius(dom, 0.0)
    # r^2 (1 - cos(theta) / 2) = 1 crosses r = 1.4 only where cos(theta) < 0.9796:
    # of 16 grid angles, theta = 0 alone has no sign change inside the ball
    eta = PolarTrigPolynomial.from_list(
        [(1.0, 2, 0, "cos"), (-0.5, 2, 1, "cos"), (-1.0, 0, 0, "cos")])
    dom = DomainSpec(eta, 1, 1.4)
    grid = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    assert np.all(boundary_radius(dom, grid[1:]) < 1.4)
    with pytest.raises(NotStarShaped, match="theta = 0.0$"):
        boundary_radius(dom, grid)


def test_check_conditions_pass_and_fail(octagon):
    ok = check_conditions(FFamilySpec(octagon, (-3.0,)), grid=1024)
    assert ok.status["A4_grad_minus_mu"] == "pass"       # 4 - 3 > 0
    assert ok.status["A4_grad_plus_kappa"] == "fail"     # honest minimum < 0
    assert ok.status["A4"] == "fail"
    bad = check_conditions(FFamilySpec(octagon, (-10.0,)), grid=256)
    assert bad.status["A4_grad_minus_mu"] == "fail"      # 4 - 10 < 0
    assert bad.status["A4"] == "fail"
    circle_ok = check_conditions(FFamilySpec(circle_domain(1.0), (-1.0,)), grid=256)
    assert circle_ok.status["A4"] == "pass"              # 2 - 1 > 0 and 2 + 1 > 0


def test_reversibility_in_family():
    with pytest.raises(ValueError):
        FFamilySpec(octagon_domain(), (1.0, 2.0, 3.0))


def test_alpha_and_k_constants(octagon):
    assert alpha_bound(octagon) == pytest.approx(4 * math.sqrt(13), abs=1e-12)
    rep = check_conditions(FFamilySpec(octagon, (-3.0,)), grid=512)
    alpha = rep.constants["alpha"]
    assert rep.constants["K"] == pytest.approx((1 + alpha) * (21 + 3), abs=1e-9)
    assert rep.constants["A"] == pytest.approx(21 + 3, abs=1e-9)
    assert rep.constants["B"] == pytest.approx(21.0, abs=1e-9)


def test_phi_roundtrip():
    for a, b in ((24.0, 21.0), (1.0, 2.0), (100.0, 0.5)):
        for w in (0.0, 0.3, 1.0, 7.0, 30.0):
            y = phi_integral(a, b, w)
            assert abs(phi_integral_inv(a, b, y) - w) <= 1e-10 * max(1.0, w)
    assert phi_integral(24.0, 21.0, 0.0) == 0.0


def test_apriori_m_monotonicity():
    base = dict(a=24.0, b=21.0)
    ks = [apriori_m_log(base["a"], base["b"], 14.4, k) for k in (5.0, 10.0, 30.0, 100.0)]
    assert ks == sorted(ks)
    ps = [apriori_m_log(24.0, 21.0, 14.4, 10.0, period=p) for p in (1.0, 3.0, 6.28)]
    assert ps == sorted(ps)
    als = [apriori_m_log(24.0, 21.0, a, 10.0) for a in (1.0, 5.0, 14.4)]
    assert als == sorted(als)
    rs = [apriori_m_log(24.0, 21.0, 14.4, 10.0, radius=r) for r in (0.5, 1.0, 2.0)]
    assert rs == sorted(rs)


def test_apriori_m_limit_zero():
    # K -> 0, alpha -> 0 collapses the bound to 0
    assert apriori_m(1.0, 1.0, 0.0, 0.0, safe_side=False) == pytest.approx(0.0, abs=1e-12)


def test_apriori_n():
    fam = FFamilySpec(circle_domain(1.0), (0.0,))
    assert apriori_n(fam, 0.0, 2.0) == pytest.approx(2.0)
    assert apriori_n(fam, 1.0, 2.0) == pytest.approx(4.0)
    fam2 = FFamilySpec(octagon_domain(), (-3.0,))
    assert apriori_n(fam2, 1.0, 21.0) == pytest.approx(2 * 21 + 3)


def test_figure_data_columns(octagon):
    rows = figure_data(octagon, grid=64)
    assert len(rows) == 64
    th, r, k, g, gk = rows[0]
    assert th == 0.0 and r == pytest.approx(1.0, abs=1e-10)
    assert k == pytest.approx(17.0, abs=1e-9)
    assert g == pytest.approx(4.0, abs=1e-9)
    assert gk == pytest.approx(21.0, abs=1e-9)
    for row in rows:
        assert row[4] == pytest.approx(row[2] + row[3], abs=1e-12)


@pytest.mark.parametrize("grid", [0, 1, -3])
def test_grid_below_two_is_refused(octagon, grid):
    # no neighbouring samples, so no grid padding: every grid check refuses
    # with the typed error, not a bare numpy error or an empty table
    fam = FFamilySpec(octagon, (-3.0,))
    for check in (lambda: check_conditions(fam, grid=grid),
                  lambda: figure_data(octagon, grid=grid)):
        with pytest.raises(GridTooCoarse, match=f"at least 2 angles, got {grid}$"):
            check()
    assert len(figure_data(octagon, grid=2)) == 2


def test_boundary_gradient_vanishes_error():
    # eta = (r^2 - 1)^2 - small: gradient vanishes where r^2 = 1 coincides
    # with the double root; build a profile with zero slope at its root
    eta = PolarTrigPolynomial.from_list(
        [(1.0, 4, 0, "cos"), (-2.0, 2, 0, "cos"), (0.999999999, 0, 0, "cos")])
    dom = DomainSpec(eta, 1, 2.5)
    for fn in (curvature, grad_norm_on_boundary):
        for theta in (0.0, np.linspace(0.0, 2 * np.pi, 8, endpoint=False)):
            with pytest.raises((BoundaryGradientVanishes, NotStarShaped)):
                fn(dom, theta)
    assert issubclass(NotStarShaped, UnsolvableDomain)
    assert issubclass(BoundaryGradientVanishes, UnsolvableDomain)


# d^b/dtheta^b of cos(q theta) and sin(q theta) is sign * q^b * trig(q theta)
_THETA_DERIVATIVE = {
    ("cos", 0): (1, np.cos), ("cos", 1): (-1, np.sin), ("cos", 2): (-1, np.cos),
    ("sin", 0): (1, np.sin), ("sin", 1): (1, np.cos), ("sin", 2): (-1, np.sin),
}


def _reference_derivative(eta, a, b, r, theta):
    """d^a_r d^b_theta eta one term at a time, each term's trig function
    evaluated afresh at every call: the reference for PolarGrid, which keeps
    the angular factors of a fixed theta.  Terms that the derivative
    annihilates are left out, as they would add 0 * r^(p - a), which is not a
    number at r = 0."""
    r, theta = np.asarray(r, float), np.asarray(theta, float)
    total = np.zeros(np.broadcast(r, theta).shape)
    for t in eta.terms:
        if t.p < a or (b > 0 and t.q == 0):
            continue
        sign, trig = _THETA_DERIVATIVE[t.kind, b]
        coef = sign * t.coef * math.perm(t.p, a) * t.q ** b
        total = total + coef * r ** (t.p - a) * trig(t.q * theta)
    return total


def test_polar_grid_matches_term_by_term_reference():
    # cos, sin and q = 0 terms of every radial power up to 3; every (a, b)
    # in {0, 1, 2}^2, at scalar and array radii, repeated on one grid (the
    # second call reads the kept factors); the same products in the same
    # order, so equal to the last bit
    eta = PolarTrigPolynomial.from_list(
        [(1.5, 3, 2, "cos"), (-0.7, 2, 3, "sin"), (2.0, 1, 0, "cos"),
         (0.4, 2, 0, "sin"), (-1.0, 0, 0, "cos"), (0.3, 3, 5, "sin"), (0.9, 0, 4, "cos")])
    theta = np.linspace(-1.0, 7.0, 29)
    grid = eta.at(theta)
    for r in (0.0, 0.8, np.linspace(0.0, 1.3, 29)):
        for a in range(3):
            for b in range(3):
                want = _reference_derivative(eta, a, b, r, theta)
                for _ in range(2):
                    assert np.array_equal(grid.derivative(a, b, r), want), (a, b)
    rs, ths = np.linspace(0.1, 1.2, 5)[:, None], theta[None, :]
    assert np.array_equal(eta.eval_polar(rs, ths), _reference_derivative(eta, 0, 0, rs, ths))
    assert eta.eval_polar(0.5, 0.25) == _reference_derivative(eta, 0, 0, 0.5, 0.25)


def _scalar_boundary_radius(spec, theta):
    """Reference: the one-angle bisection and Newton polish that
    boundary_radius runs for every angle of an array at once, through the
    term-by-term evaluator."""
    def eta(a, r):
        return float(_reference_derivative(spec.eta, a, 0, r, theta))

    lo, hi = 0.0, spec.bound_radius * (1 + 1e-9)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eta(0, mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    r = 0.5 * (lo + hi)
    for _ in range(8):
        df = eta(1, r)
        if df == 0:
            break
        r -= eta(0, r) / df
    return r


@pytest.mark.parametrize("dom", [octagon_domain(), circle_domain(1.0)],
                         ids=["octagon", "circle"])
def test_array_calls_match_scalar_calls(dom):
    thetas = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    r = boundary_radius(dom, thetas)
    assert r.shape == thetas.shape
    assert r.tolist() == [_scalar_boundary_radius(dom, float(t)) for t in thetas]
    assert r.tolist() == [boundary_radius(dom, float(t)) for t in thetas]
    assert boundary_radius(dom, thetas.reshape(8, 16)).shape == (8, 16)
    for fn in (curvature, grad_norm_on_boundary):
        assert type(fn(dom, 0.3)) is float
        scalar = np.array([fn(dom, float(t)) for t in thetas])
        np.testing.assert_allclose(fn(dom, thetas), scalar, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(fn(dom, thetas, r), fn(dom, thetas))


def test_example_geometry_verdict():
    # the machine report of the shipped example at its 4096-angle grid; the
    # eight minima of |grad eta| + kappa at pi/8 + k pi/4 tie mathematically,
    # rounding picks 7 pi/8 (grid index 1792)
    rep = check_conditions(family_spec(load_example()))
    grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    assert rep.witnesses == {"A4_grad_minus_mu": 0.0, "A4_grad_plus_kappa": grid[1792]}
    assert grid[1792] == pytest.approx(7 * math.pi / 8, abs=1e-15)
    assert {k: rep.status[k] for k in ("A4", "A4_grad_minus_mu", "A4_grad_plus_kappa")} == \
        {"A4": "fail", "A4_grad_minus_mu": "pass", "A4_grad_plus_kappa": "fail"}
    assert {k: round(v, 12) for k, v in rep.constants.items()} == {
        "A": 24.0, "B": 21, "K": 370.132922444543, "alpha": 14.422205101856,
        "grad_max": 21, "grad_min_boundary": 4.0,
        "grad_plus_kappa_min": -0.438691337651, "kappa_max": 17.0,
        "kappa_min": -5.702987389461, "margin_A4": 1.0, "mu_abs_sum": 3.0}


def test_grad_max_without_a_bracket_is_the_padded_grid_maximum():
    # with its bracket dropped, the example domain's grad_max is the grid
    # maximum of |grad eta| plus the heuristic padding, and the note says so
    fam = family_spec(load_example())
    fam = FFamilySpec(dataclasses.replace(fam.domain, published_grad_bounds=None), fam.mu)
    rep = check_conditions(fam)
    grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    gn = grad_norm_on_boundary(fam.domain, grid)
    assert rep.constants["grad_max"] == float(np.max(gn)) + _grid_pad(gn)
    assert round(rep.constants["grad_max"], 4) == 6.9615
    assert rep.notes[0] == ("no published gradient bracket; grad_max is the grid maximum of "
                            "|grad eta| plus the heuristic grid padding, not a proven bound")
