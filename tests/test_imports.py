"""Every module of the package uses every name it imports and none reads
numpy.random, and every function, method and class the package defines is
reached from the package; the checks read the source with the standard
library's ast module only.  A revdeg run, in a fresh interpreter, loads no
numpy.random or numpy.ma module that import numpy alone does not."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revdeg"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: not as a name, not inside
    a quoted annotation, and not listed in __all__ (a re-export)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (args.posonlyargs + args.args + args.kwonlyargs
                                                   + [args.vararg, args.kwarg]) if a]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(c.value, mode="eval")
                      for a in annotations if a is not None for c in ast.walk(a)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted({name for name in imported if name not in used})


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom json import dumps as d, loads\n"
              "from fractions import Fraction\n"
              "def f(x: 'Fraction') -> None:\n    return loads(sys.argv[x])\n")
    assert unused_imports(source) == ["d", "os"]
    assert unused_imports("from m import a, b\n__all__ = ['a']\n") == ["b"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The functions, methods and classes defined in the modules (file name
    -> source) that no module references outside the definition itself, as
    "module.qualified.name".  A reference to a function or a class is a
    name, an attribute of that name (on any object) or an entry of __all__;
    a method is reached only by an attribute read of its name (on any
    object, so it is matched by its name alone), never by a bare name,
    which a local variable of the same name would supply.  Dunder methods,
    which Python calls itself, are not checked."""
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        todo = [(tree, module.removesuffix(".py"), False)]
        while todo:
            node, prefix, in_class = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                prefix = f"{prefix}.{node.name}"
                defs.append((module, node.name, prefix, node.lineno, node.end_lineno,
                             in_class and not isinstance(node, ast.ClassDef)))
            todo += [(child, prefix, isinstance(node, ast.ClassDef))
                     for child in ast.iter_child_nodes(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, node.lineno, isinstance(node.ctx, ast.Load)))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                refs += [(module, e.value, node.lineno, False) for e in node.value.elts]
    return sorted(qualname for module, name, qualname, first, last, method in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and not any(n == name and (read or not method)
                              and not (m == module and first <= line <= last)
                              for m, n, line, read in refs))


# reached from outside src/revdeg only, each kept for its reason
KEPT_UNREFERENCED = {
    "degrees.DegreeEngine.component_count": "bench/workloads.py calls it",
    "lattice.ClassLattice.is_conjugate_full": "a target of the benchmark tracer",
    "lattice.ClassLattice.exact_weyl":
        "the truncation-free Weyl order, the reference the tests and oracles check against",
    "lattice.ClassLattice.exact_n_count":
        "the truncation-free containment count, the reference the tests and oracles check against",
}


def test_checker_finds_unreferenced_definitions():
    planted = {
        "a.py": ("__all__ = ['exported']\n"
                 "def exported():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def dead():\n    return dead()\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self.n = 0\n"
                 "    def used(self):\n        return self.n\n"
                 "    def unused(self):\n        def inner():\n            return 2\n"
                 "        return inner()\n"
                 "    def shadowed(self):\n        return 3\n"),
        # a local variable named like a method, and an attribute written
        # under its name, reach no method
        "b.py": ("from a import Box\n__all__ = ['check', 'store']\nBox().used()\n"
                 "def check(rows):\n    shadowed = rows\n    return shadowed\n"
                 "def store(box):\n    box.shadowed = 4\n"),
    }
    assert unreferenced_definitions(planted) == ["a.Box.shadowed", "a.Box.unused", "a.dead"]


def test_every_definition_is_reached():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == sorted(KEPT_UNREFERENCED)


def random_reads(source: str) -> list[str]:
    """The places a module reaches numpy.random: an np.random or
    numpy.random attribute read, or an import of numpy.random or of random
    from numpy, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.random"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)):
                found.append((node.lineno, f"from {node.module} import"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_checker_finds_numpy_random_reads():
    source = ("import numpy as np\nimport numpy.random\nfrom numpy import random as r\n"
              "from numpy.random import default_rng\nimport random\n"
              "x = np.random.default_rng(7)\ny = numpy.random\nz = random.random()\n"
              "w = np.linalg.norm\n")
    assert random_reads(source) == ["2: import numpy.random", "3: from numpy import",
                                    "4: from numpy.random import", "6: np.random",
                                    "7: numpy.random"]
    assert random_reads("import numpy as np\nv = np.ones(3)\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_no_numpy_random(module):
    assert random_reads((PACKAGE / module).read_text()) == []


RUN_LOADS = """
import sys
from fractions import Fraction

import numpy


def loaded():
    return {m for m in sys.modules if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])}


before = loaded()
from revdeg import cli
from revdeg.degrees import DegreeEngine
from revdeg.spectra import LinearizationSpec

cli.main(["analyze", "--config", "example", "--format", "machine",
          "--unsafe-skip-geometry", "--out", sys.argv[1]])
engine = DegreeEngine("dihedral", 8, base_level=64)
nat = engine.natural_component()
engine.existence_analysis(LinearizationSpec(1, {nat: (Fraction(-6),)}, {nat: 1}))
print(sorted(loaded() - before))
"""


def test_run_loads_no_numpy_random_or_ma(tmp_path):
    # numpy 1.x loads both with numpy itself; numpy 2.x loads them only on
    # use, so the run must not use them
    out = tmp_path / "report.json"
    r = subprocess.run([sys.executable, "-c", RUN_LOADS, str(out)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert out.exists()
    assert r.stdout.strip() == "[]"
