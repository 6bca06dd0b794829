"""Every name a module exports resolves, so ``from ... import *`` works."""
import importlib
import pkgutil

import pytest

import opalg

MODULES = ["opalg"] + [
    f"opalg.{info.name}" for info in pkgutil.iter_modules(opalg.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
