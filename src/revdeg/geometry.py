"""Planar symmetric domains D = eta^-1(-inf, 0): evaluation, curvature,
Hartman-Nagumo condition checks, and the a-priori derivative bounds.

eta is a polar trigonometric polynomial sum of c * r^p * cos/sin(q*theta).
Its one evaluator is PolarGrid, eta at fixed angles: PolarTrigPolynomial.at
computes each term's cos(q*theta) or sin(q*theta) once for an array of
angles, and PolarGrid.derivative(a, b, r) then evaluates d^a_r d^b_theta eta
at any r.  PolarTrigPolynomial.eval_polar is a one-off call to it, and the
grid loops (the bisection and Newton steps of boundary_radius, the chain
rule of the gradient and Hessian) build it once per grid rather than once
per step.  Cartesian derivatives come from the polar chain rule, away from
the origin; the boundary is parameterized by angle through the unique
positive root of eta(. , theta), so the domain must be star-shaped, and a
ray with no crossing or a boundary point where grad eta vanishes raises an
UnsolvableDomain.  boundary_radius, grad_norm_on_boundary and curvature
take a float angle and return a float, or an array of angles and return an
array of its shape, solved in one vectorized bisection and Newton pass;
passing the radii already solved (r=...), and to curvature the gradient
already computed (gradient=...), lets a grid check solve each once.
Strict inequalities over grids are checked against a padding of twice the
largest difference between neighbouring grid samples, a heuristic and not a
proven bound between grid points; a margin inside the padding reports an
inconclusive status rather than a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class UnsolvableDomain(ValueError):
    """The boundary of the domain cannot be solved for as this module needs:
    a ray with no single crossing, or a boundary point where grad eta
    vanishes."""


class NotStarShaped(UnsolvableDomain):
    """No boundary crossing found along a ray."""


class BoundaryGradientVanishes(UnsolvableDomain):
    """|grad eta| = 0 on the boundary: the regular-value condition fails."""


class GridTooCoarse(ValueError):
    """A boundary grid of fewer than two angles, too few for a grid padding."""


@dataclass(frozen=True)
class Term:
    coef: float
    p: int          # radial power
    q: int          # angular multiple
    kind: str       # "cos" or "sin"


@dataclass(frozen=True)
class PolarTrigPolynomial:
    terms: tuple[Term, ...]

    @staticmethod
    def from_list(entries) -> "PolarTrigPolynomial":
        """Terms from (coef, p, q, kind) entries; a kind other than "cos" or
        "sin" is refused (ValueError)."""
        terms = tuple(Term(float(c), int(p), int(q), kind) for c, p, q, kind in entries)
        for t in terms:
            if t.kind not in ("cos", "sin"):
                raise ValueError(f"term kind must be 'cos' or 'sin', got {t.kind!r}")
        return PolarTrigPolynomial(terms)

    def at(self, theta) -> "PolarGrid":
        """eta at the fixed angles theta, to evaluate at many radii."""
        return PolarGrid(self.terms, np.asarray(theta, float))

    def eval_polar(self, r, theta):
        return self.at(theta).derivative(0, 0, r)

    def grad_coef_bound(self, radius: float) -> tuple[float, float]:
        """(sum |c| p R^{p-1}, sum |c| q R^{p-1}): certified bounds for |eta_r|
        and |eta_theta / r| on the closed ball of the given radius."""
        br = sum(abs(t.coef) * t.p * radius ** max(t.p - 1, 0) for t in self.terms)
        bt = sum(abs(t.coef) * t.q * radius ** max(t.p - 1, 0) for t in self.terms)
        return br, bt


class PolarGrid:
    """A polar trig polynomial at fixed angles theta.  Each term's angular
    factor, cos(q*theta) or sin(q*theta), is computed on first use and kept,
    so evaluating at many radii recomputes no trig function."""

    def __init__(self, terms: tuple[Term, ...], theta: np.ndarray):
        self.terms, self.theta = terms, theta
        self._factors: dict[tuple[bool, int], np.ndarray] = {}

    def _factor(self, use_cos: bool, q: int) -> np.ndarray:
        f = self._factors.get((use_cos, q))
        if f is None:
            f = self._factors[use_cos, q] = (np.cos if use_cos else np.sin)(q * self.theta)
        return f

    def derivative(self, a: int, b: int, r):
        """d^a/dr^a d^b/dtheta^b eta at (r, theta), r broadcast against theta."""
        r = np.asarray(r, float)
        total = np.zeros(np.broadcast(r, self.theta).shape)
        for t in self.terms:
            if t.p < a or (b and not t.q):
                continue
            # the b-th theta-derivative of cos walks cos, -sin, -cos, sin;
            # sin enters that cycle at its last step
            step = (b + (3 if t.kind == "sin" else 0)) % 4
            sign = -1 if step in (1, 2) else 1
            coef = sign * t.coef * math.perm(t.p, a) * t.q ** b
            total = total + coef * r ** (t.p - a) * self._factor(step in (0, 2), t.q)
        return total


@dataclass(frozen=True)
class DomainSpec:
    """D = eta^-1(-inf,0) with dihedral symmetry of the given order, inside
    the ball of radius bound_radius; published_grad_bounds, when provided,
    is a verified bracket [lo, hi] for |grad eta| on the boundary."""

    eta: PolarTrigPolynomial
    symmetry_order: int
    bound_radius: float
    published_grad_bounds: tuple[float, float] | None = None

    def validate(self) -> list[str]:
        problems = []
        if self.eta.eval_polar(0.0, 0.0) >= 0:
            problems.append("eta(0) >= 0: the origin is not interior")
        n = self.symmetry_order
        thetas = np.linspace(0.0, 2 * np.pi, 37)
        rs = np.linspace(0.05, self.bound_radius, 11)
        vals = self.eta.eval_polar(rs[:, None], thetas[None, :])
        rot = self.eta.eval_polar(rs[:, None], thetas[None, :] + 2 * np.pi / n)
        neg = self.eta.eval_polar(rs[:, None], -thetas[None, :])
        if not np.allclose(vals, rot, atol=1e-9):
            problems.append("eta is not invariant under rotation by 2*pi/n")
        if not np.allclose(vals, neg, atol=1e-9):
            problems.append("eta is not invariant under reflection")
        ant = self.eta.eval_polar(rs[:, None], thetas[None, :] + np.pi)
        if not np.allclose(vals, ant, atol=1e-9):
            problems.append("eta is not even (antipodal invariance fails)")
        return problems


def octagon_domain() -> DomainSpec:
    """The octagonal example domain eta = 2 r^4 - r^4 cos(8 theta) - 1."""
    eta = PolarTrigPolynomial.from_list(
        [(2.0, 4, 0, "cos"), (-1.0, 4, 8, "cos"), (-1.0, 0, 0, "cos")])
    return DomainSpec(eta, symmetry_order=8, bound_radius=1.0,
                      published_grad_bounds=(4.0, 21.0))


def circle_domain(radius: float = 1.0) -> DomainSpec:
    eta = PolarTrigPolynomial.from_list(
        [(1.0, 2, 0, "cos"), (-(radius ** 2), 0, 0, "cos")])
    return DomainSpec(eta, symmetry_order=1, bound_radius=radius * 1.001)


def _grad_xy(eta: PolarTrigPolynomial, x, y):
    """(eta_x, eta_y) away from the origin by the polar chain rule; arrays
    broadcast."""
    r, th = np.hypot(x, y), np.arctan2(y, x)
    grid = eta.at(th)
    fr, ft = grid.derivative(1, 0, r), grid.derivative(0, 1, r)
    c, s = np.cos(th), np.sin(th)
    return (c * fr - s * ft / r, s * fr + c * ft / r)


def _hess_xy(eta: PolarTrigPolynomial, x, y):
    """(eta_xx, eta_xy, eta_yy) away from the origin, as _grad_xy."""
    r, th = np.hypot(x, y), np.arctan2(y, x)
    grid = eta.at(th)
    fr, ft, frr, frt, ftt = (grid.derivative(a, b, r)
                             for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    c, s = np.cos(th), np.sin(th)
    xx = (c * c * frr - 2 * c * s * (frt / r - ft / r ** 2)
          + s * s * (fr / r + ftt / r ** 2))
    yy = (s * s * frr + 2 * c * s * (frt / r - ft / r ** 2)
          + c * c * (fr / r + ftt / r ** 2))
    xy = (c * s * frr + (c * c - s * s) * (frt / r - ft / r ** 2)
          - c * s * (fr / r + ftt / r ** 2))
    return (xx, xy, yy)


# -- boundary geometry ----------------------------------------------------------


def _angles(theta) -> np.ndarray:
    return np.asarray(theta, float).ravel()


def _shaped(values: np.ndarray, theta):
    """One value per angle: a float for a scalar theta, else theta's shape."""
    return float(values[0]) if np.ndim(theta) == 0 else values.reshape(np.shape(theta))


def boundary_radius(spec: DomainSpec, theta):
    """Unique positive root of eta(., theta), by bisection plus Newton polish,
    solved for all angles at once; each angle stops bisecting when its own
    bracket is narrower than 1e-15, and a root whose |eta| exceeds 1e-12
    after the polish is refused."""
    th = _angles(theta)
    grid = spec.eta.at(th)
    lo = np.zeros(th.shape)
    hi = np.full(th.shape, spec.bound_radius * (1 + 1e-9))
    bad = (grid.derivative(0, 0, lo) >= 0) | (grid.derivative(0, 0, hi) <= 0)
    if bad.any():
        raise NotStarShaped(f"no sign change along theta = {th[bad][0]}")
    bisecting = np.ones(th.shape, bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = grid.derivative(0, 0, mid) < 0
        lo = np.where(bisecting & below, mid, lo)
        hi = np.where(bisecting & ~below, mid, hi)
        bisecting &= hi - lo >= 1e-15
        if not bisecting.any():
            break
    r = 0.5 * (lo + hi)
    polishing = np.ones(th.shape, bool)     # a zero slope ends an angle's Newton steps
    for _ in range(8):
        f, df = grid.derivative(0, 0, r), grid.derivative(1, 0, r)
        polishing &= df != 0
        r[polishing] -= f[polishing] / df[polishing]
    bad = np.abs(grid.derivative(0, 0, r)) > 1e-12
    if bad.any():
        raise NotStarShaped(f"root polish failed at theta = {th[bad][0]}")
    return _shaped(r, theta)


def _boundary_gradient(spec: DomainSpec, theta, r):
    """Boundary points (x, y), the gradient (gx, gy) there and its norm, as
    flat arrays; r=None solves the radii."""
    th = _angles(theta)
    r = boundary_radius(spec, th) if r is None else _angles(r)
    x, y = r * np.cos(th), r * np.sin(th)
    gx, gy = _grad_xy(spec.eta, x, y)
    n = np.hypot(gx, gy)
    flat = n < 1e-12
    if flat.any():
        raise BoundaryGradientVanishes(f"|grad eta| = 0 at theta = {th[flat][0]}")
    return x, y, gx, gy, n


def grad_norm_on_boundary(spec: DomainSpec, theta, r=None):
    """|grad eta| at the boundary point at angle theta; r, when given, holds
    the boundary radii at theta (as boundary_radius returns them)."""
    return _shaped(_boundary_gradient(spec, theta, r)[4], theta)


def curvature(spec: DomainSpec, theta, r=None, *, gradient=None):
    """Gauss curvature of the boundary at angle theta; positive where the
    domain is locally convex (outward normal grad eta / |grad eta|).  r as in
    grad_norm_on_boundary; gradient, when given, is _boundary_gradient's
    result at theta, which is then not solved again."""
    x, y, gx, gy, n = _boundary_gradient(spec, theta, r) if gradient is None else gradient
    xx, xy, yy = _hess_xy(spec.eta, x, y)
    return _shaped((xx * gy * gy - 2 * xy * gx * gy + yy * gx * gx) / n ** 3, theta)


# -- condition checks and a-priori constants -------------------------------------


def _boundary_samples(spec: DomainSpec, grid: int):
    """grid angles and, at each, the boundary radius, |grad eta| and kappa,
    from one solve of the gradient; a grid below 2 is refused
    (GridTooCoarse)."""
    if grid < 2:
        raise GridTooCoarse(f"boundary grid must have at least 2 angles, got {grid}")
    thetas = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    r = boundary_radius(spec, thetas)
    gradient = _boundary_gradient(spec, thetas, r)
    return thetas, r, gradient[4], curvature(spec, thetas, r, gradient=gradient)


def _grid_pad(values: np.ndarray) -> float:
    """The heuristic padding of the module docstring: 2 max|diff| of samples."""
    return 2.0 * float(np.max(np.abs(np.diff(values)))) + 1e-9


@dataclass(frozen=True)
class FFamilySpec:
    """Right-hand side (|z|^2 + 1) grad eta(x) + mu_0 x + sum mu_j y^j."""

    domain: DomainSpec
    mu: tuple[float, ...]

    def __post_init__(self):
        m = len(self.mu)
        for j in range(1, m):
            if self.mu[j] != self.mu[m - j]:
                raise ValueError(f"reversibility fails: mu_{j} != mu_{m - j}")

    @property
    def mu_abs_sum(self) -> float:
        return float(sum(abs(v) for v in self.mu))


@dataclass
class ConditionReport:
    status: dict[str, str]            # condition -> "pass" | "fail" | "inconclusive"
    witnesses: dict[str, float]       # condition -> witnessing theta
    constants: dict[str, float]       # A, B, alpha, K, grad bounds, margins
    notes: list[str]

    def all_passed(self) -> bool:
        return all(v == "pass" for v in self.status.values())


def alpha_bound(spec: DomainSpec) -> float:
    """Certified alpha with |grad eta| <= alpha on the closed ball:
    termwise coefficient bound sqrt((sum |c| p R^{p-1})^2 + (sum |c| q R^{p-1})^2)."""
    br, bt = spec.eta.grad_coef_bound(spec.bound_radius)
    return math.sqrt(br * br + bt * bt)


def check_conditions(fam: FFamilySpec, grid: int = 4096) -> ConditionReport:
    """Verify the touching condition and produce growth constants.

    Sufficient chain for the touching condition: min_C |grad eta| - R * sum|mu| > 0
    and min_C(|grad eta| + kappa) > 0.  Strict inequalities are checked against
    the heuristic grid padding of the module docstring; a margin inside it
    yields "inconclusive".
    """
    dom, notes = fam.domain, []
    thetas, _, gn, ka = _boundary_samples(dom, grid)
    pad_g, pad_k = _grid_pad(gn), _grid_pad(ka)
    musum = fam.mu_abs_sum
    r_bound = dom.bound_radius
    status, witness = {}, {}

    margin_a4a = float(np.min(gn)) - r_bound * musum
    margin_a4b = float(np.min(gn + ka))
    witness["A4_grad_minus_mu"] = float(thetas[int(np.argmin(gn))])
    witness["A4_grad_plus_kappa"] = float(thetas[int(np.argmin(gn + ka))])
    for name, margin, pad in (("A4_grad_minus_mu", margin_a4a, pad_g),
                              ("A4_grad_plus_kappa", margin_a4b, pad_g + pad_k)):
        status[name] = "pass" if margin > pad else ("fail" if margin <= 0 else "inconclusive")
    parts = {status["A4_grad_minus_mu"], status["A4_grad_plus_kappa"]}
    status["A4"] = "fail" if "fail" in parts else ("pass" if parts == {"pass"} else "inconclusive")

    if dom.published_grad_bounds is not None:
        lo, hi = dom.published_grad_bounds
        inside = float(np.min(gn)) >= lo - 1e-9 and float(np.max(gn)) <= hi + 1e-9
        status["published_grad_bracket"] = "pass" if inside else "fail"
        grad_max = hi
    else:
        grad_max = float(np.max(gn)) + pad_g
        notes.append("no published gradient bracket; grad_max is the grid maximum of "
                     "|grad eta| plus the heuristic grid padding, not a proven bound")

    alpha = alpha_bound(dom)
    a5_a = grad_max + r_bound * musum
    a5_b = grad_max
    big_k = (1 + alpha) * (grad_max + musum)
    constants = {
        "A": a5_a, "B": a5_b, "alpha": alpha, "K": big_k,
        "grad_max": grad_max, "mu_abs_sum": musum,
        "grad_min_boundary": float(np.min(gn)),
        "kappa_min": float(np.min(ka)), "kappa_max": float(np.max(ka)),
        "grad_plus_kappa_min": margin_a4b,
        "margin_A4": margin_a4a,
    }
    # the growth conditions hold with these constants only when they are finite
    finite = all(math.isfinite(constants[c]) for c in ("A", "B", "alpha", "K"))
    status["A5"] = status["A6prime"] = "pass" if finite else "fail"
    notes.append("published (A5) constants swap A and B relative to the "
                 "displayed bound; sound values reported here")
    return ConditionReport(status, witness, constants, notes)


def phi_integral(a: float, b: float, w: float) -> float:
    """Phi(w) = integral_0^w u / (a + b u^2) du = ln(1 + (b/a) w^2) / (2b)."""
    return math.log1p(b / a * w * w) / (2 * b)


def apriori_m_log(a: float, b: float, alpha: float, big_k: float,
                  period: float = 2 * math.pi, radius: float = 1.0,
                  safe_side: bool = True) -> float:
    """log of the first-derivative bound M = Phi^-1(K p^2/2 + alpha R^2 +
    Phi(K p / 2)); the safe-side variant doubles phi and bumps K by one.
    Computed in log space since M is exp-large for realistic constants."""
    if safe_side:
        a, b, big_k = 2 * a, 2 * b, big_k + 1
    y = 0.5 * big_k * period ** 2 + alpha * radius ** 2 + \
        phi_integral(a, b, 0.5 * big_k * period)
    # M = sqrt(a/b (e^{2by} - 1)); log M = log(a/b)/2 + by + log1p(-e^{-2by})/2
    two_by = 2 * b * y
    if two_by <= 0:
        return -math.inf
    if two_by > 50:
        return 0.5 * math.log(a / b) + b * y
    return 0.5 * math.log(a / b) + 0.5 * math.log(math.expm1(two_by))


def apriori_m(a: float, b: float, alpha: float, big_k: float,
              period: float = 2 * math.pi, radius: float = 1.0,
              safe_side: bool = True) -> float:
    """First-derivative bound M (math.inf if not representable as a float)."""
    lm = apriori_m_log(a, b, alpha, big_k, period, radius, safe_side)
    return math.exp(lm) if lm < 700 else math.inf


def apriori_n(fam: FFamilySpec, m_bound: float, grad_max: float) -> float:
    """Second-derivative bound for the family:
    N = (M^2 + 1) * max|grad eta| + R * sum|mu|."""
    return (m_bound ** 2 + 1) * grad_max + fam.domain.bound_radius * fam.mu_abs_sum


def figure_data(spec: DomainSpec, grid: int = 1024) -> list[tuple[float, ...]]:
    """Rows (theta, boundary r, kappa, |grad eta|, |grad eta| + kappa)."""
    thetas, r, g, k = _boundary_samples(spec, grid)
    return list(zip(*(col.tolist() for col in (thetas, r, k, g, g + k))))

FIGURE_HEADER = "theta,boundary_r,kappa,grad_norm,grad_norm_plus_kappa"
