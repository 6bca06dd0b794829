"""Benchmark for the opalg certifier: one closed-loop client that calls
``opalg.cli.main(argv)`` for a fixed workload, one call after another.

Run from the repository root:

    python3 perfbench/run.py --workload all-default --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``cert_s``: median wall seconds of ``main(argv)`` in a process that has
  already imported opalg (every stage plus report emission);
- ``setup_s``: median seconds for a fresh interpreter to import
  ``opalg.cli`` and validate ``build_config(argv)``;
- ``peak_rss_mb``: peak resident memory of this process, read after the
  first call of the workload.

``--trace 1`` runs the workload once untraced and twice with every layer
in ``layers.py`` wrapped, and reports the per-layer metrics.

Every call passes a correctness gate: exit code 0 and ``overall: true``,
the check names the workload expects, in order, and a ``report.json``
payload byte-identical to the first call's.  A call that breaks the gate
counts its check records as failed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, install, is_exact_count, metrics as layer_metrics
from tracer import Tracer, snapshot

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# relative to ROOT: the payload echoes out_dir, so the path must not vary
OUT_DIR = ".perfbench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
# cold starts per run, half before the calls and half after, so that the
# median spans two machine states
SETUP_REPEATS = 8
# BLAS threads per measured process: the SVDs are tiny, and a second
# OpenBLAS thread on a 2-core machine adds contention, not speed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"cert_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """\
import sys
import opalg.cli
if not opalg.cli.__file__.startswith(sys.argv[1]):
    sys.exit("opalg imported from " + opalg.cli.__file__)
opalg.cli.build_config(sys.argv[2:])
"""


def import_opalg():
    """Import ``opalg.cli`` from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "opalg" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no opalg sources in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import opalg.cli

    if not opalg.cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"perfbench: opalg imported from {opalg.cli.__file__}, not {SRC}")
    return opalg.cli


def workload_argv(argv, seed):
    return [*argv, "--seed", str(seed), "--out", OUT_DIR]


class Gate:
    """Correctness gate for the calls of one workload and seed."""

    def __init__(self, checks):
        self.checks = list(checks)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, rc, error, doc):
        """Account one call; returns its stage seconds and payload size."""
        self.attempted += len(self.checks)
        problems = []
        broken = False
        failed_records = 0
        stage_seconds, size = {}, 0
        if error is not None:
            problems.append(f"raised {error}")
            broken = True
        if doc is None:
            problems.append("wrote no report.json")
            broken = True
        else:
            payload = doc["report"]
            stage_seconds = doc["meta"]["stage_seconds"]
            text = json.dumps(payload, sort_keys=True, indent=2)
            size = len(text.encode())
            if self.reference is None:
                self.reference = text
            records = [c for s in payload["stages"] for c in s["checks"]]
            failed_records = sum(not c["passed"] for c in records)
            names = [c["name"] for c in records]
            if names != self.checks:
                problems.append(f"check names {names}")
                broken = True
            elif text != self.reference:
                problems.append("payload differs from the first call")
                broken = True
            if rc != 0 or payload["overall"] is not True:
                problems.append(f"exit {rc}, overall {payload['overall']}, {failed_records} failed checks")
        if broken:
            self.failed += len(self.checks)
        elif problems:
            self.failed += max(failed_records, 1)
        self.problems.extend(problems)
        return stage_seconds, size


def invoke(cli, argv):
    """One timed call of ``main(argv)``; returns (seconds, rc, error, report doc)."""
    report = ROOT / OUT_DIR / "report.json"
    report.unlink(missing_ok=True)
    # each call starts from a collected heap, as in a fresh process
    gc.collect()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
        error = repr(exc)
    seconds = time.perf_counter() - start
    try:
        doc = json.loads(report.read_text())
    except (OSError, ValueError):
        doc = None
    return seconds, rc, error, doc


def cpu_probe():
    """Seconds for a fixed pure-Python loop: a drift record, never a divisor."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return time.perf_counter() - start


def cold_setup_seconds(argv, repeats):
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *argv]
    times = []
    # the first start of a batch compiles bytecode or refills caches; discarded
    for _ in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return times[1:]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cli, argv, checks, seconds, setup_repeats=SETUP_REPEATS):
    """Untraced closed loop: calls until the next one would end past
    ``seconds`` (at least one call)."""
    gate = Gate(checks)
    setup = cold_setup_seconds(argv, setup_repeats // 2)
    times, probes = [], []
    rss = None
    start = time.perf_counter()
    while True:
        probes.append(cpu_probe())
        elapsed, rc, error, doc = invoke(cli, argv)
        gate.record(rc, error, doc)
        times.append(elapsed)
        if rss is None:
            rss = peak_rss_mb()
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    setup += cold_setup_seconds(argv, setup_repeats - setup_repeats // 2)
    metrics = {
        "cert_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    detail = {"cert_samples_s": times, "setup_samples_s": setup, "probe_s": probes}
    return gate, metrics, detail


def traced(cli, argv, checks):
    """One untraced call, then two traced calls whose exact counts must agree."""
    gate = Gate(checks)
    probes = [cpu_probe()]
    untraced_s, rc, error, doc = invoke(cli, argv)
    gate.record(rc, error, doc)
    before = snapshot()
    tracer = Tracer()
    runs = []
    try:
        install(tracer)
        for _ in range(2):
            tracer.reset()
            probes.append(cpu_probe())
            elapsed, rc, error, doc = invoke(cli, argv)
            stage_seconds, size = gate.record(rc, error, doc)
            runs.append((elapsed, layer_metrics(tracer, stage_seconds, size)))
    finally:
        tracer.remove()
    after = snapshot()
    if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
        gate.problems.append("a wrapped attribute was not restored")
    first, second = runs[0][1], runs[1][1]
    for name in first:
        if is_exact_count(name) and first[name] != second[name]:
            gate.problems.append(f"{name} did not repeat: {first[name]} vs {second[name]}")
    values = {name: second[name] if is_exact_count(name) else statistics.median([first[name], second[name]])
              for name in first}
    values["trace.overhead_ratio"] = statistics.median([t for t, _ in runs]) / untraced_s
    metrics = {name: values[name] for name, _ in PER_LAYER}
    detail = {"untraced_s": untraced_s, "traced_s": [t for t, _ in runs], "probe_s": probes}
    return gate, metrics, detail


def blas_info():
    """BLAS version and the thread count OpenBLAS reports, when it can be read."""
    import ctypes

    import numpy

    version = None
    with contextlib.suppress(Exception):
        version = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    threads = None
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    return numpy.__version__, version, threads


def cpu_ticks():
    """Aggregate (busy, steal) clock ticks of the machine, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:3]) + sum(fields[5:7]), fields[7] if len(fields) > 7 else 0


def environment(load_at_start, ticks_at_start):
    numpy_version, blas_version, blas_threads = blas_info()
    env = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }
    ticks = cpu_ticks()
    if ticks is not None and ticks_at_start is not None:
        busy, steal = (now - then for now, then in zip(ticks, ticks_at_start))
        env["steal_share"] = steal / max(busy + steal, 1)
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()
    ticks_at_start = cpu_ticks()
    os.environ.update(BLAS_ENV)
    os.chdir(ROOT)
    cli = import_opalg()
    spec = WORKLOADS[args.workload]
    run_argv = workload_argv(spec["argv"], args.seed)
    try:
        if args.trace:
            gate, values, detail = traced(cli, run_argv, spec["checks"])
            units = dict(PER_LAYER)
        else:
            gate, values, detail = measure(cli, run_argv, spec["checks"], args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(ROOT / OUT_DIR, ignore_errors=True)
    for problem in gate.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: opalg {' '.join(run_argv)}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_share = {gate.failed / gate.attempted:.6g} share "
          f"({gate.failed} of {gate.attempted} check records)")
    print("detail " + json.dumps(detail))
    print("env " + json.dumps(environment(load_at_start, ticks_at_start)))
    result = {
        "correct": gate.failed == 0 and not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
