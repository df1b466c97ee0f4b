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


def test_import_loads_no_scipy():
    # scipy.spatial is most of the import time and memory; only the
    # empty-ball checker and the reach estimator use it, and import it there
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, thicken; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
