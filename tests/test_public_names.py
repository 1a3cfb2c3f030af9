import importlib
import pkgutil

import pytest

import glasslocal

MODULES = [f"glasslocal.{m.name}" for m in pkgutil.iter_modules(glasslocal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__all__
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
