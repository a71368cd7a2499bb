"""Spectrum of the linearization at the origin for commensurate delays.

Mode-k eigenvalue on the l-th antipodal component:

    xi_{k,l} = 1 + (sum_{j=0}^{m-1} cos(2*pi*j*k/m) * mu_j^l - 1) / (1 + k^2),

computed from the complex-exponential form of the linearization (the full
delay sum), not from the folded half-sum, whose even-m correction term is
re-derived separately and only reported for comparison.  A mode k is
computed exactly when every cos(2*pi*j*k/m) is rational, which by Niven's
theorem is when every j*k/m mod 1 is one of 0, 1/6, 1/4, 1/3, 1/2, 2/3,
3/4, 5/6.  That holds for every mode when m is 1, 2, 3, 4 or 6, and for
other m at some modes (every multiple of m among them, where each
cosine is 1).  The other modes use floats with a certified sign margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

SIGN_MARGIN = 1e-9

# cos(2*pi*x) for the x in [0, 1) where it is rational (Niven's theorem)
_RATIONAL_COS = {
    Fraction(0): Fraction(1), Fraction(1, 6): Fraction(1, 2), Fraction(1, 4): Fraction(0),
    Fraction(1, 3): Fraction(-1, 2), Fraction(1, 2): Fraction(-1),
    Fraction(2, 3): Fraction(-1, 2), Fraction(3, 4): Fraction(0),
    Fraction(5, 6): Fraction(1, 2),
}


class ReversibilityError(ValueError):
    """mu_j != mu_{m-j} for some j."""


class SignNotCertified(ArithmeticError):
    """A spectral sign decision fell inside the floating-point margin."""


@dataclass(frozen=True)
class LinearizationSpec:
    """Delay count m and the eigenvalue table mu_j^l of the linearization.

    mu maps the component index l to the tuple (mu_0^l, ..., mu_{m-1}^l);
    mult maps l to the isotypic multiplicity m^l.  Entries may be Fractions
    (exact) or floats.
    """

    m: int
    mu: dict[int, tuple]
    mult: dict[int, int]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("delay count m must be >= 1")
        for l, row in self.mu.items():
            if len(row) != self.m:
                raise ValueError(f"mu row for component {l} has length "
                                 f"{len(row)}, expected {self.m}")
            for j in range(1, self.m):
                if row[j] != row[self.m - j]:
                    raise ReversibilityError(
                        f"mu_{j} != mu_{self.m - j} on component {l}")
        if set(self.mult) != set(self.mu):
            raise ValueError("mult and mu must cover the same components")
        for l, v in self.mult.items():
            if v < 0:
                raise ValueError(f"multiplicity of component {l} is negative")

    @property
    def components(self) -> list[int]:
        return sorted(self.mu)

    def abs_mu_sum(self, l: int) -> Fraction:
        """sum_j |mu_j^l|, exactly: a float entry enters as its exact value."""
        return sum(abs(Fraction(x)) for x in self.mu[l])


def _mode_cosines(k: int, m: int) -> list:
    """cos(2*pi*j*k/m) for j = 0..m-1: Fractions when every one is
    rational, else floats."""
    turns = [Fraction((j * k) % m, m) for j in range(m)]
    if all(x in _RATIONAL_COS for x in turns):
        return [_RATIONAL_COS[x] for x in turns]
    return [math.cos(2 * math.pi * ((j * k) % m) / m) for j in range(m)]


def mode_sum(spec: LinearizationSpec, k: int, l: int):
    """S_k^l = sum_j cos(2*pi*j*k/m) mu_j^l (exact when possible)."""
    row, cos = spec.mu[l], _mode_cosines(k, spec.m)
    exact = isinstance(cos[0], Fraction) and all(isinstance(x, Rational) for x in row)
    total = Fraction(0) if exact else 0.0
    for c, mu_j in zip(cos, row):
        total += (c if exact else float(c)) * (mu_j if exact else float(mu_j))
    return total


def xi(spec: LinearizationSpec, k: int, l: int):
    """Mode-k eigenvalue on component l; Fraction when exactly computable."""
    s = mode_sum(spec, k, l)
    if isinstance(s, Fraction):
        return 1 + Fraction(s - 1, 1 + k * k)
    return 1.0 + (s - 1.0) / (1.0 + k * k)


def xi_published_form(spec: LinearizationSpec, k: int, l: int):
    """The folded half-sum variant with the published even-m correction
    (subtracting the half-index term); differs from xi for even m."""
    m, row, cos = spec.m, spec.mu[l], _mode_cosines(k, spec.m)
    r = (m - 1) // 2
    eps = 1 if m % 2 == 0 else 0
    s = row[0] + sum(2 * cos[j] * row[j] for j in range(1, r + 1))
    if eps:
        s -= row[r]
    denom = 1 + k * k
    if isinstance(s, Fraction):
        return 1 + Fraction(s - 1, denom)
    return 1.0 + (float(s) - 1.0) / denom


def sign_of(value) -> int:
    """Certified sign (-1, 0, +1); raises when a float is inside the margin."""
    if isinstance(value, Fraction):
        return (value > 0) - (value < 0)
    if abs(value) < SIGN_MARGIN:
        raise SignNotCertified(f"cannot certify sign of {value}")
    return 1 if value > 0 else -1


MAX_CUTOFF = 10_000  # the largest K* a configuration may have (one xi per mode up to it)


def cutoff(spec: LinearizationSpec) -> int:
    """K* with xi_{k,l} > 0 guaranteed for all k > K*, from the bound
    xi >= 1 - (1 + s) / (1 + k^2), s = sum_j |mu_j^l|: it is positive iff
    k^2 > s, and the least such k is isqrt(floor(s)) + 1, s taken exactly."""
    return max((math.isqrt(math.floor(spec.abs_mu_sum(l))) + 1 for l in spec.components),
               default=0)


@dataclass(frozen=True)
class SpectralSummary:
    spec: LinearizationSpec
    kstar: int
    xis: dict[tuple[int, int], object]          # (k, l) -> xi value, k <= kstar
    negative: tuple[tuple[int, int], ...]       # (k, l) with xi < 0
    multiplicities: dict[tuple[int, int], int]  # m_{k,l}
    degenerate_modes: tuple[int, ...]           # modes k with some xi == 0
    nondegenerate: bool

    @property
    def active_modes(self) -> list[int]:
        return sorted({k for k, _ in self.negative})

    def published_form_disagreements(self) -> list[tuple[int, int]]:
        out = []
        for (k, l), v in self.xis.items():
            w = xi_published_form(self.spec, k, l)
            if isinstance(v, Fraction) and isinstance(w, Fraction):
                if v != w:
                    out.append((k, l))
            elif abs(float(v) - float(w)) > 1e-9:
                out.append((k, l))
        return sorted(out)


def spectral_summary(spec: LinearizationSpec) -> SpectralSummary:
    kstar = cutoff(spec)
    xis, negative, mult, degenerate = {}, [], {}, set()
    for k in range(kstar + 1):
        for l in spec.components:
            v = xi(spec, k, l)
            xis[(k, l)] = v
            s = sign_of(v) if not isinstance(v, Fraction) or v != 0 else 0
            if s < 0:
                negative.append((k, l))
                mult[(k, l)] = spec.mult[l]
            else:
                mult[(k, l)] = 0
                if s == 0:
                    degenerate.add(k)
    return SpectralSummary(
        spec, kstar, xis, tuple(sorted(negative)), mult,
        tuple(sorted(degenerate)), nondegenerate=not degenerate)


FOLD_SEARCH_BOUND = 64  # default largest fold s tried on a degenerate spectrum


def degenerate_fold_search(summary: SpectralSummary,
                           bound: int = FOLD_SEARCH_BOUND) -> int | None:
    """Smallest s >= 1 with no odd multiple of s in the degenerate mode set."""
    bad = set(summary.degenerate_modes)
    if not bad:
        return 1
    top = max(bad)
    for s in range(1, bound + 1):
        if all(q not in bad for q in range(s, top + 1, 2 * s)):
            return s
    return None


def analysed_modes(summary: SpectralSummary,
                 bound: int = FOLD_SEARCH_BOUND) -> tuple[int | None, list[int]]:
    """The fold s of a degenerate spectrum (else None) and the modes k >= 1
    whose maximal orbit types the existence analysis tests: the active
    modes, or the odd multiples of s up to K* (none when no s <= bound)."""
    if summary.nondegenerate:
        return None, [k for k in summary.active_modes if k >= 1]
    s = degenerate_fold_search(summary, bound)
    return s, [] if s is None else list(range(s, summary.kstar + 1, 2 * s))
