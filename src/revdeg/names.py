"""Printable names for subgroup classes of dihedral groups and of Gamma x Z2.

The D8 x Z2 names reproduce the published 38-name convention (Z1, Z2, D1tz,
..., D8p).  Plain subgroups H x 1 carry the dihedral name of H, H x Z2 gets a
"p" suffix, and twisted diagonals {(h, phi(h))} are named from the pair
(projection, kernel).  Groups outside this family fall back to systematic
order-index names.
"""

from __future__ import annotations

def dihedral_subgroup_name(n: int, members) -> str:
    """Name of a subgroup of the dihedral group of order 2n (class invariant).

    Cyclic parts are Z{d}; dihedral parts are D{k} or D{k}t, the "t" marking
    the reflection-axis parity class when the two are non-conjugate.
    """
    rots = sorted(i for i in members if i < n)
    refls = sorted(i - n for i in members if i >= n)
    d = len(rots)
    if not refls:
        return f"Z{d}"
    k = len(refls)
    assert k == d
    if (n // k) % 2 == 0 and refls[0] % 2 == 1:
        return f"D{k}t"
    return f"D{k}"


def _diagonal_name(n: int, proj_name: str, kernel_name: str) -> str:
    """Name for a twisted diagonal {(h, phi(h))} <= Gamma x Z2 with Gamma = D{n}."""
    if proj_name.startswith("Z"):
        d = int(proj_name[1:])
        return "Z2m" if d == 2 else f"Z{d}d"
    if kernel_name.startswith("Z"):
        # kernel is the rotation part (trivial for D1-types)
        return proj_name + "z"
    # kernel contains reflections
    if proj_name == f"D{n}" and n >= 2:
        return "D4dh" if kernel_name.endswith("t") else f"D{n}d"
    base = proj_name[:-1] if proj_name.endswith("t") else proj_name
    return base + ("td" if proj_name.endswith("t") else "d")


def gamma_z2_subgroup_name(n: int, members) -> str:
    """Name of a subgroup of D{n} x Z2 (element index = gamma_index*2 + z2_index)."""
    gamma_part = sorted({i // 2 for i in members})
    has_minus = any(i % 2 == 1 for i in members)
    proj_name = dihedral_subgroup_name(n, gamma_part)
    if not has_minus:
        return proj_name
    if 1 in members:  # contains (identity, -1): full product
        return proj_name + "p"
    kernel = sorted(i // 2 for i in members if i % 2 == 0)
    kernel_name = dihedral_subgroup_name(n, kernel)
    return _diagonal_name(n, proj_name, kernel_name)
