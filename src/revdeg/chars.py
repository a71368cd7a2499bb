"""Real character tables and representation matrices for Gamma x Z2,
Gamma dihedral or cyclic, from closed forms.

Characters are stored per element.  Two-dimensional dihedral characters take
values 2cos(2*pi*j*a/n); all decided quantities downstream (fixed-space
dimensions, inner products) are integers and are checked to be integral to
tight tolerance before rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, direct_product, make_cyclic, make_dihedral, make_gamma

INT_TOL = 1e-8


class UnsupportedGroupShape(ValueError):
    """Character table requested for a group outside the dihedral/cyclic family."""


class NonIntegralAverage(ArithmeticError):
    """A quantity that must be an integer failed the integrality check."""


def as_int(x: float, what: str = "value") -> int:
    r = round(x)
    if abs(x - r) > INT_TOL:
        raise NonIntegralAverage(f"{what} = {x} is not an integer")
    return int(r)


@dataclass(frozen=True)
class Irrep:
    name: str
    dim: int
    char: np.ndarray        # per-element character
    matrices: np.ndarray    # (order, dim, dim) orthogonal matrices
    z2_sign: int            # +1 plus-type, -1 minus-type (antipodal Z2 action)
    frobenius: int          # squared norm of the real character (1 real, 2 complex)


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    irreps: tuple[Irrep, ...]
    element_class_count: int


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _dihedral_irreps(n: int) -> list[Irrep]:
    g = make_dihedral(n)
    order = 2 * n
    rot_pow = np.arange(order) % n
    is_refl = np.arange(order) >= n
    out = []

    def linear(name, r_sign, s_sign):
        vals = np.where(is_refl, s_sign * (r_sign ** rot_pow), (r_sign ** rot_pow))
        mats = vals.reshape(order, 1, 1).astype(float)
        out.append(Irrep(name, 1, vals.astype(float), mats, +1, 1))

    linear("triv", 1, 1)
    linear("det", 1, -1)
    if n % 2 == 0:
        linear("alt", -1, 1)
        linear("altdet", -1, -1)
    for j in range(1, (n + 1) // 2):
        ang = 2 * np.pi * j * rot_pow / n
        char = np.where(is_refl, 0.0, 2 * np.cos(ang))
        mats = np.stack([_rot(a) if not r else _rot(a) @ np.diag([1.0, -1.0])
                         for a, r in zip(ang, is_refl)])
        out.append(Irrep(f"rho{j}", 2, char, mats, +1, 1))
    return out


def _cyclic_irreps(n: int) -> list[Irrep]:
    order = n
    a = np.arange(order)
    out = [Irrep("triv", 1, np.ones(order), np.ones((order, 1, 1)), +1, 1)]
    if n % 2 == 0:
        vals = ((-1.0) ** a)
        out.append(Irrep("sgn", 1, vals, vals.reshape(order, 1, 1), +1, 1))
    for j in range(1, (n - 1) // 2 + 1):
        ang = 2 * np.pi * j * a / n
        mats = np.stack([_rot(t) for t in ang])
        out.append(Irrep(f"rot{j}", 2, 2 * np.cos(ang), mats, +1, 2))
    return out


def _element_class_count(g: FiniteGroup) -> int:
    seen = np.zeros(g.order, dtype=bool)
    count = 0
    for a in range(g.order):
        if seen[a]:
            continue
        orbit = g.table[g.table[np.arange(g.order), a], g.inverse[np.arange(g.order)]]
        seen[np.unique(orbit)] = True
        count += 1
    return count


def gamma_irreps(kind: str, n: int) -> list[Irrep]:
    if kind == "dihedral":
        return _dihedral_irreps(n)
    if kind == "cyclic":
        return _cyclic_irreps(n)
    raise UnsupportedGroupShape(f"unsupported group kind {kind!r}")


def character_table(kind: str, n: int) -> CharacterTable:
    """Character table of Gamma x Z2 (element index = gamma_index*2 + z2_index)."""
    gz = direct_product(make_gamma(kind, n), make_cyclic(2))
    base = gamma_irreps(kind, n)
    order = gz.order
    z2 = np.arange(order) % 2
    gidx = np.arange(order) // 2
    irreps = []
    for sign_name, sign in (("+", +1), ("-", -1)):
        for ir in base:
            signs = np.where(z2 == 1, float(sign), 1.0)
            char = ir.char[gidx] * signs
            mats = ir.matrices[gidx] * signs[:, None, None]
            irreps.append(Irrep(ir.name + sign_name, ir.dim, char, mats,
                                sign, ir.frobenius))
    table = CharacterTable(gz, tuple(irreps), _element_class_count(gz))
    _check_table(table)
    return table


def _check_table(t: CharacterTable) -> None:
    # complex-type real irreps stand for two complex irreducibles each
    complex_count = sum(ir.frobenius for ir in t.irreps)
    if complex_count != t.element_class_count:
        raise UnsupportedGroupShape(
            f"irrep census {complex_count} != element class count {t.element_class_count}")
    order = t.group.order
    inv = t.group.inverse
    for i, a in enumerate(t.irreps):
        for j, b in enumerate(t.irreps):
            ip = float(np.dot(a.char, b.char[inv])) / order
            expect = a.frobenius if i == j else 0
            if abs(ip - expect) > INT_TOL:
                raise UnsupportedGroupShape(
                    f"orthogonality failed for ({a.name},{b.name}): {ip}")


def minus_irreps(t: CharacterTable) -> list[int]:
    """Indices of the antipodal-Z2 irreps, l = 0 the Gamma-trivial one,
    the rest ordered by (dimension, character vector)."""
    minus = [i for i, ir in enumerate(t.irreps) if ir.z2_sign == -1]
    trivial = [i for i in minus if t.irreps[i].dim == 1
               and np.allclose(np.abs(t.irreps[i].char), 1.0)
               and np.allclose(t.irreps[i].char[2::2], 1.0)]
    assert len(trivial) == 1
    rest = sorted((i for i in minus if i != trivial[0]),
                  key=lambda i: (t.irreps[i].dim, tuple(np.round(t.irreps[i].char, 9))))
    return trivial + rest


def natural_component(t: CharacterTable) -> int:
    """Index l, into minus_irreps(t), of the 2-dimensional faithful-rotation
    component (the standard plane for dihedral/cyclic Gamma), when present."""
    for l, i in enumerate(minus_irreps(t)):
        ir = t.irreps[i]
        if ir.dim == 2 and ir.name.startswith(("rho1", "rot1")):
            return l
    raise ValueError("group has no 2-dimensional natural component")


def multiplicity(t: CharacterTable, values: np.ndarray, irrep_index: int) -> int:
    """Multiplicity of an irrep in a real character, exact-integer checked."""
    ir = t.irreps[irrep_index]
    ip = float(np.dot(values, ir.char[t.group.inverse])) / t.group.order
    return as_int(ip / ir.frobenius, f"multiplicity of {ir.name}")
