"""The truncation-level policy.  lattice.py alone sizes the base level M
(level_for_modes, default_level) and compares a computation at M with the
same at 2M (ClassLattice.at_both_levels).  The guard reads the package with
the standard library's ast module only, as test_imports.py does."""

import ast
import json
import math
from pathlib import Path

import pytest

from oracles import direct_basic_degree
from revdeg import cli, lattice
from revdeg.degrees import DegreeEngine
from revdeg.groups import closure
from revdeg.lattice import (
    MAX_GROUP_ORDER,
    ClassLattice,
    InadmissibleLevel,
    TruncationInstability,
    default_level,
    level_for_modes,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revdeg"
LEVEL_ERRORS = ("TruncationInstability", "InadmissibleLevel")


def level_decisions(source: str) -> list[str]:
    """Each place a module decides a level itself: a call of math.lcm (under
    any name math or lcm is imported as) or a raise of a level error, as
    'line: what'."""
    tree = ast.parse(source)
    maths, lcms = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            maths |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            lcms |= {a.asname or a.name for a in node.names if a.name == "lcm"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in lcms) or (
                    isinstance(f, ast.Attribute) and f.attr == "lcm"
                    and isinstance(f.value, ast.Name) and f.value.id in maths):
                found.append((node.lineno, "lcm"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in LEVEL_ERRORS:
                found.append((node.lineno, f"raise {name}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_checker_finds_level_decisions():
    source = ("import math\nimport math as m\nfrom math import gcd, lcm as l\n"
              "from . import lattice\nfrom .lattice import TruncationInstability\n"
              "def f(n):\n"
              "    a = math.lcm(n, 2) + m.lcm(n, 4) + l(n, 8) + gcd(n, 2) + max(n, 1)\n"
              "    if a:\n"
              "        raise TruncationInstability('levels differ')\n"
              "    raise lattice.InadmissibleLevel\n")
    assert level_decisions(source) == ["7: lcm", "7: lcm", "7: lcm",
                                       "9: raise TruncationInstability",
                                       "10: raise InadmissibleLevel"]
    # the policy module itself is seen deciding levels
    assert level_decisions((PACKAGE / "lattice.py").read_text())


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "lattice.py"))
def test_only_lattice_decides_levels(module):
    assert level_decisions((PACKAGE / module).read_text()) == []


KINDS = ("dihedral", "cyclic")
# Gamma = D_n or Z_n and the highest mode K of modes 0..K
GRID = ([(kind, n, top) for kind in KINDS for n in range(1, 10) for top in range(4)]
        + [(kind, n, 4) for kind in KINDS for n in (1, 3, 5)]
        + [(kind, n, 5) for kind in KINDS for n in (1, 3)])


def lcm_rule(n: int, top: int) -> int:
    """The level analyze sized by before the doubling: 4·lcm(n, 2, k·n)."""
    return 4 * math.lcm(n, 2, *(k * n for k in range(1, top + 1)))


def test_level_changes_only_where_the_lcm_rule_refused():
    for kind, n, top in GRID:
        doubled = n % 2 == 1 and top == 2
        assert level_for_modes(n, range(top + 1)) == lcm_rule(n, top) * (2 if doubled else 1)
        # the modes may come in any order, with repeats and mode 0 or not
        assert level_for_modes(n, [*range(top, -1, -1), top]) == \
            level_for_modes(n, range(1, top + 1))
        # basic-degree sizes for its one mode: odd n doubles at even modes
        doubled = n % 2 == 1 and top % 2 == 0 and top > 0
        assert level_for_modes(n, [top]) == \
            4 * math.lcm(n, 2, max(top, 1) * n) * (2 if doubled else 1)


@pytest.mark.parametrize("kind,n,top", GRID, ids=lambda v: str(v))
def test_every_basic_degree_computes_at_the_sized_level(kind, n, top):
    eng = DegreeEngine(kind, n, base_level=level_for_modes(n, range(top + 1)))
    for l in range(eng.component_count()):
        for k in range(top + 1):
            eng.basic_degree(k, l)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in KINDS for n in (1, 3, 5)])
def test_doubled_level_gives_the_degrees_of_a_higher_level(kind, n):
    # where the lcm rule refused, the mode-2 basic degrees at the doubled
    # level are those at twice that level
    level = level_for_modes(n, [2])
    assert level == 16 * n
    engines = [DegreeEngine(kind, n, base_level=m) for m in (level, 2 * level)]
    for l in range(engines[0].component_count()):
        lo, hi = (e.basic_degree(2, l) for e in engines)
        assert lo.labeled() == hi.labeled()


def test_default_level_keeps_its_value_and_its_refusals():
    for n in range(1, 13):
        assert default_level(n) == 4 * math.lcm(n, 4, 2)
        assert DegreeEngine("cyclic", n).lattice.m_lo == default_level(n)
    # of the two refusals the benchmark's gamma_sweep recorded at the
    # default, D4 V(2,4) stays: its mode-1 fold 4 goes to fold 8, above 16/4
    with pytest.raises(TruncationInstability, match="^fold 8 too close to truncation level 16"):
        DegreeEngine("dihedral", 4).basic_degree(2, 4)
    # Z4 V(2,2), folded from mode 1, is no longer refused and gives the
    # degree of twice the level, (G), by the fold and by the mode-2 sampler
    # and recurrence there
    got = DegreeEngine("cyclic", 4).basic_degree(2, 2).labeled()
    doubled = DegreeEngine("cyclic", 4, base_level=2 * default_level(4))
    assert got == doubled.basic_degree(2, 2).labeled() == [("(G)", 1)]
    assert direct_basic_degree(doubled, 2, 2).labeled() == got


@pytest.mark.parametrize("kind,n,irrep", [("dihedral", 3, "natural"), ("cyclic", 3, "natural"),
                                          ("dihedral", 5, "natural"),
                                          ("dihedral", 1, "minus_index:1")])
def test_cli_runs_odd_n_at_its_default_level(tmp_path, kind, n, irrep):
    # mu = -6 makes modes 0-2 active: the lcm rule's 8n refused these
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "group": {"kind": kind, "n": n}, "delays_m": 1,
        "representation": [{"label": "plane", "irrep": irrep, "multiplicity": 1}],
        "mu": {"plane": ["-6"]}}))
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--config", str(config), "--format", "machine",
                     "--out", str(out)])
    assert code in (0, 10)
    assert json.loads(out.read_text())["truncation_levels"] == [16 * n, 32 * n]
    for mode in ("2", "4"):
        assert cli.main(["basic-degree", "--config", str(config), "--mode", mode,
                         "--out", str(tmp_path / "degree.txt")]) == 0


def lattice_state(lat):
    return (list(lat.classes), list(lat.labels), list(lat._weyl),
            {key: rows.tobytes() for key, rows in lat._orbits.items()},
            {key: list(ids) for key, ids in lat._by_order.items()},
            list(lat.escape_log))


def test_weyl_order_that_changes_with_the_level_is_refused():
    # D4 with trivial Gamma x Z2 part at level 20: 20/4 is odd, so D_20 holds
    # no D8 over it and its truncated Weyl order is 4; at 40 it is 8, as in
    # O(2).  The refusal leaves the lattice as it was, and it goes on working
    lat = ClassLattice("dihedral", 1, 20)
    m = lat.m_lo
    d4 = closure(lat.group_lo, [lat.encode(5, False, 0, m), lat.encode(0, True, 0, m)])
    before = lattice_state(lat)
    for _ in range(2):
        with pytest.raises(TruncationInstability, match=r"^Weyl order of \(D4 x Z1\) differs "
                                                        r"between levels 20 and 40: 4 vs 8$"):
            lat.ensure_handle(d4, m)
        assert lattice_state(lat) == before
    d2 = closure(lat.group_lo, [lat.encode(10, False, 0, m), lat.encode(0, True, 0, m)])
    cid = lat.ensure_handle(d2, m)
    assert cid == len(before[0])
    assert lat.weyl(cid) == lat.exact_weyl(cid) == 8


@pytest.mark.parametrize("level", [0, -4, 2, 30])
def test_base_level_must_be_a_positive_multiple_of_4(level):
    with pytest.raises(InadmissibleLevel, match=f"^base level {level} must be a positive "
                                                "multiple of 4$"):
        DegreeEngine("dihedral", 2, base_level=level)


class GroupBuilt(Exception):
    """Raised in place of building a truncation group."""


def test_a_level_over_the_group_cap_is_refused_before_any_group(monkeypatch, tmp_path, capsys):
    # D8 at mu = -82 (modes 0-9) sizes level 80,640, whose 2M group has
    # 10,321,920 elements; no group is built before the refusal.  mu = -50
    # (modes 0-7, level 13,440, 1,720,320 elements) passes the cap
    def built(*args):
        raise GroupBuilt
    monkeypatch.setattr(lattice, "trunc_group", built)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "group": {"kind": "dihedral", "n": 8}, "delays_m": 1,
        "representation": [{"label": "plane", "irrep": "natural", "multiplicity": 1}],
        "mu": {"plane": ["-82"]}}))
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", str(config)]) == 39
    assert capsys.readouterr().err == (
        "InadmissibleLevel: base level 80640: the group at level 161280 would have "
        f"10321920 elements, above {MAX_GROUP_ORDER}\n")
    assert level_for_modes(8, range(8)) == 13440
    with pytest.raises(GroupBuilt):
        ClassLattice("dihedral", 8, 13440)


def test_at_both_levels_compares_the_two_levels():
    lat = ClassLattice("cyclic", 1, 8)
    calls = []
    assert lat.at_both_levels(lambda m: calls.append(m) or m // m, "one") == 1
    assert calls == [8, 16]
    with pytest.raises(TruncationInstability,
                       match=r"^twice of it differs between levels 8 and 16: 16 vs 32$"):
        lat.at_both_levels(lambda m: 2 * m, "twice of it")
