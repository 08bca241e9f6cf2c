"""Every public name a module exports exists, and is exported once."""

import importlib
import pkgutil

import pytest

import fastslow

MODULES = sorted(m.name for m in pkgutil.iter_modules(fastslow.__path__, "fastslow."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
    assert [n for n in exported if not hasattr(module, n)] == []
