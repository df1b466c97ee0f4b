"""Every exported name resolves, so a deletion cannot leave a dangling export."""
import importlib
import pkgutil

import pytest

import thicken

MODULES = ["thicken"] + [f"thicken.{m.name}" for m in pkgutil.iter_modules(thicken.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})
