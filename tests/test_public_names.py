"""Every name a module exports resolves, so ``from ... import *`` works."""
import importlib
import importlib.util
import pathlib
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


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_on_every_wrapped_name():
    # the benchmark's traced run wraps opalg callables by name, and a name it
    # wraps that is gone makes install raise
    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    tracer_module, layers = _load(root / "tracer.py"), _load(root / "layers.py")
    before = tracer_module.snapshot()
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        opalg.diagonals.pi_map(opalg.TensorElem.of([(opalg.Matrix.identity(2),) * 2]))
        assert tracer.calls["diagonals.pi_map"] == 1
    finally:
        tracer.remove()
    assert tracer_module.snapshot() == before
