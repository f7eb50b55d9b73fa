"""Export lists: every name a module's ``__all__`` promises is there, once."""

import importlib
import pkgutil

import pytest

import fbsdelta

MODULES = ["fbsdelta"] + [f"fbsdelta.{info.name}" for info in pkgutil.iter_modules(fbsdelta.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_appears_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

