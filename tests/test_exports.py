"""The package surface: every exported name resolves, so a deletion cannot
leave a dangling export; the library raises its own error types; importing
it stays light."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import thicken

MODULES = ["thicken"] + [f"thicken.{m.name}" for m in pkgutil.iter_modules(thicken.__path__)]
PACKAGE = Path(thicken.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})


def test_library_raises_no_bare_value_or_runtime_error():
    # a value outside its domain raises InvalidInput, which is a ValueError
    # and a ThickenError; TypeError stays for arguments of the wrong type
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "RuntimeError"):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare


def _scipy_modules_after(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # scipy.spatial is most of the import time and memory; only the reach
    # estimator uses it, and imports it there
    assert _scipy_modules_after("import sys, thicken") == "[]"
    # a VR campaign, the empty-ball check included, runs on numpy alone
    campaign = ("import sys\nfrom thicken import parse_config, run_campaign\n"
                "for shape in ('circle radius=1', 'torus major=3 minor=1'):\n"
                "    run_campaign(parse_config(f'shape={shape} r=0.5 k=3 trials=20 seed=1 "
                "flavor=vr'))")
    assert _scipy_modules_after(campaign) == "[]"


def test_scipy_is_imported_only_by_the_reach_estimator():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owner = {id(inner): name for name, fn in scopes for inner in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append((path.name, owner.get(id(node))))
    assert importers == [("shapes.py", "estimate_reach")]
