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


def test_each_name_has_one_home():
    homes = {}
    for name in MODULES:
        for attr in importlib.import_module(name).__all__:
            homes.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in homes.items() if len(mods) > 1} == {}


def test_quadrature_rule_is_built_on_first_use():
    # the rule is a cached function, not arrays built at import
    from glasslocal import scalar

    assert "gh_rule" in scalar.__all__
    assert not any(hasattr(scalar, name) for name in ("GH_NODES", "GH_WEIGHTS"))
