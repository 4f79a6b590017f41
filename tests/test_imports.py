"""Imports inside the package run one way, and only at module level but for one
standard-library module that one command needs; a fresh process maps no more."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import muskat
from muskat import fvm

# each module may import only modules to its left; the package __init__
# imports the layers below cli, and cli reads __version__ from it
ORDER = ["numerics", "params", "checks", "profiles", "functionals", "fvm", "__init__", "cli"]
# the one import below module level: simulate's hashlib, which would map
# OpenSSL's libcrypto into every process that imports the CLI
DEFERRED = {("cli.py", "hashlib")}


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
            deferred = isinstance(node, ast.Import) and all(
                (f.name, a.name) in DEFERRED for a in node.names)
            if id(node) not in top and not deferred:
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
    # no module of the package uses numpy.polynomial: the entropy is a closed
    # form and the fvm's 5-point Gauss rule is written out as literals
    src = Path(muskat.__file__).resolve().parents[1]
    code = ("import sys, muskat.cli; "
            "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                   check=True)


# what a fresh process maps besides numpy and the package: hashlib (and the
# OpenSSL libcrypto behind _hashlib) only once simulate hashes its config,
# and numpy.polynomial never
_FOOTPRINT = """
import json, sys
from muskat import cli, fvm

def run(*argv):
    assert cli.main(list(argv)) == 0, argv

def loaded():
    return [m for m in ("hashlib", "_hashlib", "numpy.polynomial") if m in sys.modules]

run("curve", "--R", "1", "--R-mu", "10", "--eta", "1", "-n", "21", "--out-dir", "curve")
run("profile", "--R", "1", "--R-mu", "0.03", "--eta", "1", "--kind", "connected",
    "--out-dir", "profile")
bump = lambda x: 0.75 * (1.0 - x * x) * (abs(x) < 1.0)
fvm.init_state((bump, bump), fvm.Grid(n_cells=40), renormalize=True)
assert loaded() == [], loaded()
with open("sim.json", "w") as fh:
    json.dump({"R": 1, "R_mu": 2, "eta": 1, "n_cells": 40, "t_end": 0.001, "dt": 1e-4,
               "initial": {"kind": "bumps", "halfwidth_f": 1.5, "halfwidth_g": 1.0}}, fh)
run("simulate", "--config", "sim.json", "--out-dir", "sim")
assert loaded() == ["hashlib", "_hashlib"], loaded()
"""


def test_only_simulate_loads_hashlib_and_nothing_loads_numpy_polynomial(tmp_path):
    src = Path(muskat.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT], cwd=tmp_path, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_fvm_gauss_rule_literals_are_numpys_symmetrised_leggauss():
    gx, gw = np.polynomial.legendre.leggauss(5)
    gx, gw = 0.5 * (gx - gx[::-1]), 0.5 * (gw + gw[::-1])
    assert np.array(fvm._GAUSS5_X).tobytes() == gx.tobytes()
    assert np.array(fvm._GAUSS5_W).tobytes() == gw[2::-1].tobytes()


def test_numerics_imports_only_the_standard_library():
    # the two solvers run on Python floats; numpy is not needed to import them
    tree = ast.parse((Path(muskat.__file__).parent / "numerics.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert names and all(m.split(".")[0] in sys.stdlib_module_names for m in names), names
