"""Imports inside the package run one way, and only at module level."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import muskat

# each module may import only modules to its left; the package __init__
# imports the layers below cli, and cli reads __version__ from it
ORDER = ["numerics", "params", "checks", "profiles", "functionals", "fvm", "__init__", "cli"]


def _targets(node: ast.AST) -> list[str]:
    """Package modules that an import statement reads."""
    if isinstance(node, ast.ImportFrom) and node.level:
        if node.module:
            return [node.module.split(".")[0]]
        return [a.name if a.name in ORDER else "__init__" for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{a.name}" for a in node.names]
    else:
        names = [a.name for a in node.names]
    parts = [n.split(".") for n in names if n.split(".")[0] == "muskat"]
    return [p[1] if len(p) > 1 and p[1] in ORDER else "__init__" for p in parts]


def test_imports_follow_layer_order():
    src = Path(muskat.__file__).parent
    files = sorted(src.glob("*.py"))
    assert sorted(f.stem for f in files) == sorted(ORDER)
    bad = []
    for f in files:
        tree = ast.parse(f.read_text())
        top = {id(n) for n in tree.body}
        rank = ORDER.index(f.stem)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) not in top:
                bad.append(f"{f.name}:{node.lineno} imports below module level")
            for t in _targets(node):
                if ORDER.index(t) >= rank:
                    bad.append(f"{f.name}:{node.lineno} imports {t}")
    assert not bad, bad


def test_all_lists_every_public_function_and_class():
    src = Path(muskat.__file__).parent
    bad = []
    for f in sorted(src.glob("*.py")):
        mod = importlib.import_module(f"muskat.{f.stem}" if f.stem != "__init__" else "muskat")
        if not hasattr(mod, "__all__"):
            continue
        tree = ast.parse(f.read_text())
        public = [n.name for n in tree.body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]
        bad += [f"{f.name}: {n} not in __all__" for n in public if n not in mod.__all__]
        bad += [f"{f.name}: {n} listed but absent" for n in mod.__all__ if not hasattr(mod, n)]
    assert not bad, bad


def test_package_import_leaves_numpy_polynomial_out():
    # the quadrature nodes are computed on first use, so importing the
    # package and its CLI does not load numpy.polynomial
    src = Path(muskat.__file__).resolve().parents[1]
    code = ("import sys, muskat.cli; "
            "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                   check=True)


def test_numerics_imports_only_the_standard_library():
    # the two solvers run on Python floats; numpy is not needed to import them
    tree = ast.parse((Path(muskat.__file__).parent / "numerics.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert names and all(m.split(".")[0] in sys.stdlib_module_names for m in names), names
