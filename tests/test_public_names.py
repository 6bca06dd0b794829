"""Every name a module exports resolves, so ``from ... import *`` works, and
the README's library example runs."""
import importlib
import importlib.util
import pathlib
import pkgutil
from fractions import Fraction

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
    # wraps that is gone makes install raise; its hooks also read names they
    # do not wrap (is_exact, entry, rows, cols), so each wrapped Matrix
    # method is called once under the tracer
    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    tracer_module, layers = _load(root / "tracer.py"), _load(root / "layers.py")
    before = tracer_module.snapshot()
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        m = opalg.Matrix.exact([[1, Fraction(1, 2)], [0, (0, 1)]])
        product, kron, scaled, floats = m @ m, m.kron(m), m * Fraction(1, 3), m.to_float()
        assert product.entry(0, 1) == (Fraction(1, 2), Fraction(1, 2)) and kron.shape == (4, 4)
        assert scaled.entry(0, 1) == (Fraction(1, 6), 0) and floats.tolist() == [[1, 0.5], [0, 1j]]
        assert tracer.calls["matrices.matmul_exact"] == 1
        assert tracer.calls["matrices.mul_scalar_exact"] == 1
        assert tracer.calls["matrices.kron_exact"] == tracer.calls["matrices.exact_ctor"] == 1
        assert tracer.calls["matrices.to_float"] == 1
        assert tracer.counts["matrices.kron_exact.entries"] == 16 and tracer.maxima["matrices.exact_max_bits"] == 2
        opalg.diagonals.pi_map(opalg.TensorElem.of([(opalg.Matrix.identity(2),) * 2]))
        assert tracer.calls["diagonals.pi_map"] == 1
    finally:
        tracer.remove()
    assert tracer_module.snapshot() == before


def test_readme_library_example_runs():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "build_chain" in block
    exec(compile(block, "README.md", "exec"), {})
