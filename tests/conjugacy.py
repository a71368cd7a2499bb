"""The conjugacy reference of the tests: two subgroups (sorted member
tuples) are conjugate when one's member row turns up in the orbit walk of
the other."""

import numpy as np

from revdeg.groups import Group, orbit_walk


def is_conjugate(g: Group, h1, h2) -> bool:
    if len(h1) != len(h2):
        return False
    row = np.asarray(h2, dtype=np.int32)
    return bool((orbit_walk(g, h1) == row).all(axis=1).any())
