"""Every module of the package uses every name it imports.  The check reads
the source with the standard library's ast module only."""

import ast
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
