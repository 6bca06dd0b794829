"""Tests of the benchmark itself: span arithmetic, wrapper removal,
metric names and units, the correctness gate, and a smoke run of every
workload at a tiny size.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, snapshot  # noqa: E402

cli = run.import_opalg()
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    yield
    shutil.rmtree(run.ROOT / run.OUT_DIR, ignore_errors=True)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def bookkeeping(_label, _args, _result):
        clock.now += 100.0

    def leaf_body(seconds):
        clock.now += seconds

    def failing_body():
        clock.now += 4.0
        raise ValueError

    def parent_body():
        clock.now += 1.0
        leaf(2.0)
        clock.now += 0.5
        leaf(3.0)
        with pytest.raises(ValueError):
            failing()

    leaf = tracer.wrap(leaf_body, "leaf", bookkeeping)
    failing = tracer.wrap(failing_body, "failing")
    parent = tracer.wrap(parent_body, "parent")
    parent()
    assert dict(tracer.calls) == {"parent": 1, "leaf": 2, "failing": 1}
    assert tracer.self_s["leaf"] == pytest.approx(5.0)
    assert tracer.self_s["failing"] == pytest.approx(4.0)
    # 1.0 + 0.5 of its own; children and their bookkeeping are excluded
    assert tracer.self_s["parent"] == pytest.approx(1.5)


def test_install_patches_every_binding_and_remove_restores_it():
    import opalg
    from opalg import cli as cli_mod, diagonals, matrices

    before = snapshot()
    mbad = diagonals.certify_mbad
    mul = matrices.Matrix.__dict__["__mul__"]
    exact = matrices.Matrix.__dict__["exact"]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for namespace in (opalg, cli_mod, diagonals):
            assert namespace.certify_mbad is not mbad
        assert matrices.Matrix.__dict__["__rmul__"] is matrices.Matrix.__dict__["__mul__"] is not mul
        assert matrices.Matrix.__dict__["exact"] is not exact
        assert matrices.Matrix.exact([[1]]).is_exact
        assert tracer.calls["matrices.exact_ctor"] == 1
    finally:
        tracer.remove()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == dict(layers.PER_LAYER)
    # diagonal-deep runs by hand only; see README.md
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) - {"diagonal-deep"}
    for name, unit in [*run.END_TO_END.items(), *layers.PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name
        assert unit


def test_gate_counts_a_stage_error_as_failed(at_root):
    checks = run.WORKLOADS["all-default"]["checks"][:4]
    gate = run.Gate(checks)
    # a decreasing coupling list passes config validation, then the chain stage raises
    _, rc, error, doc = run.invoke(cli, run.workload_argv(
        ["chain", "--m-max", "6", "--coupling-scheme", "list:2,1,1"], 0))
    gate.record(rc, error, doc)
    assert rc == 1
    assert gate.failed == gate.attempted == len(checks)
    assert gate.problems


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_measure_passes_gate(workload, at_root):
    spec = run.WORKLOADS[workload]
    argv = run.workload_argv(spec["smoke_argv"], 3)
    gate, metrics, detail = run.measure(cli, argv, spec["checks"], seconds=0, setup_repeats=1)
    assert gate.failed == 0 and not gate.problems
    assert gate.attempted == len(spec["checks"])
    assert metrics.keys() == run.END_TO_END.keys()
    assert all(value > 0 for value in metrics.values())
    assert len(detail["cert_samples_s"]) == 1


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_traced_run(workload, at_root):
    spec = run.WORKLOADS[workload]
    before = snapshot()
    gate, metrics, _ = run.traced(cli, run.workload_argv(spec["smoke_argv"], 3), spec["checks"])
    after = snapshot()
    assert all(after[key] is value for key, value in before.items())
    assert gate.failed == 0 and not gate.problems
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["matrices.matmul_exact.calls"] > 0
    skipped = {"generate-deep": ("diagonals.", "embedding."), "diagonal-deep": ("embedding.",)}
    for name, value in metrics.items():
        if name.startswith(skipped.get(workload, ())) and name.endswith(".calls"):
            assert value == 0, name
