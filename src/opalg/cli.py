"""Command-line driver: staged certification runs with deterministic
JSON and CSV report emission.

Subcommands select which certification suites run (chain, generate,
diagonal, embed, or all).  Reports are reproducible: two runs with the
same config and seed emit byte-identical payloads; wall-clock timings
and timestamps live in a separate metadata block.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .chains import ChainSpec, build_chain, norm_profile, verify_semilattice
from .diagonals import (
    TensorElem,
    certify_expectation,
    certify_mbad,
    expectation_from_diagonal,
    expectation_norm_demo,
    full_matrix_diagonal,
)
from .draws import Pcg64, sha256
from .embedding import (
    RankOneFamily,
    best_subset_sum,
    brute_force_best_subset,
    certify_E_family,
    certify_embedding_bounds,
    unit_circle_sweep_ratios,
)
from .generation import WeightSeq, certify_generation, orthogonal_generators, same_span
from .matrices import DEFAULT_TOL, Matrix, Stack, bound_holds

__all__ = ["ExperimentConfig", "CheckRecord", "StageResult", "RunReport",
           "run_experiment", "emit_report", "payload_json", "main", "console_main"]

SUBCOMMANDS = ("chain", "generate", "diagonal", "embed", "all")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    subcommand: str = "all"
    m_max: int = 10
    n_max: int = 10
    f_cap: int = 512
    s_max: int = 8
    r_max: int = 40
    trials: int = 100
    coupling_scheme: str = "linear"
    weight_scheme: str = "norm-adaptive"
    trace_scheme: str = "geometric"
    seed: int = 0
    tol: float = DEFAULT_TOL
    out_dir: str = "."
    format: str = "json"

    def validate(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}, got {self.subcommand!r}")
        for name in ("m_max", "n_max", "f_cap", "s_max", "r_max", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.r_max < 2:
            raise ConfigError(f"r_max must be at least 2, got {self.r_max}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol <= sys.float_info.max:
            raise ConfigError(f"tol must be a finite nonnegative real, got {tol!r}")
        # a config file may give an int; the echo in the report is a float either way
        self.tol = float(tol)
        if self.trace_scheme not in ("geometric", "uniform"):
            raise ConfigError(f"trace_scheme must be geometric or uniform, got {self.trace_scheme!r}")
        if self.format not in ("json", "csv", "both"):
            raise ConfigError(f"format must be json, csv or both, got {self.format!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        couplings = _parse_couplings(self.coupling_scheme, self.m_max // 2)
        if any(abs(b) > abs(c) for b, c in zip(couplings, couplings[1:])):
            raise ConfigError(f"coupling_scheme norms must be nondecreasing, got {self.coupling_scheme!r}")
        # the chain metrics scale like |b|^2, a finite float up to |b| = 2**500
        if any(abs(b) > 2**500 for b in couplings):
            raise ConfigError(f"coupling_scheme values must be at most 2**500 in size, got {self.coupling_scheme!r}")
        _parse_weight_scheme(self.weight_scheme)


def _rational(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} value {text!r} is not a rational number") from None


def _parse_couplings(descriptor: str, count: int):
    """Coupling descriptors: linear (b_{2k} = k), constant:<rational>,
    or list:<comma-separated rationals>; anything else is a ConfigError."""
    kind, _, arg = str(descriptor).partition(":")
    if descriptor == "linear":
        return tuple(range(1, count + 1))
    if kind == "constant":
        return (_rational(arg, "coupling_scheme"),) * count
    if kind == "list":
        values = tuple(_rational(x, "coupling_scheme") for x in arg.split(","))
        if len(values) < count:
            raise ConfigError(f"coupling_scheme lists {len(values)} values but {count} are needed")
        return values[:count]
    raise ConfigError(f"coupling_scheme {descriptor!r} not understood")


def _parse_weight_scheme(descriptor: str):
    kind, _, arg = str(descriptor).partition(":")
    if descriptor == "norm-adaptive":
        return None
    if kind == "geometric":
        ratio = _rational(arg, "weight_scheme")
        if not 0 < ratio < 1:
            raise ConfigError("weight_scheme geometric ratio must be in (0, 1)")
        return ratio
    raise ConfigError(f"weight_scheme {descriptor!r} not understood")


def _weights_for(family: Stack, descriptor: str) -> WeightSeq:
    ratio = _parse_weight_scheme(descriptor)
    if ratio is None:
        return WeightSeq.norm_adaptive(family)
    return WeightSeq(tuple(ratio**j for j in range(1, len(family.re) + 1)))


def _stage_seed(seed: int, label: str) -> int:
    digest = sha256(f"{seed}:{label}".encode())
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    anchor: str
    expected: str
    observed: str
    bound: float | None
    passed: bool


@dataclass
class StageResult:
    name: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, anchor, expected, observed, passed, bound=None):
        self.checks.append(
            CheckRecord(
                name=name,
                anchor=anchor,
                expected=str(expected),
                observed=str(observed),
                bound=None if bound is None else float(bound),
                passed=bool(passed),
            )
        )


@dataclass
class RunReport:
    config: dict
    stages: list[StageResult]
    overall: bool
    series: dict
    meta: dict

    def payload(self) -> dict:
        return {
            "schema": "opalg.report/1",
            "config": self.config,
            "stages": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "checks": [asdict(c) for c in s.checks],
                }
                for s in self.stages
            ],
            "overall": self.overall,
        }


def payload_json(report: RunReport) -> str:
    return json.dumps(report.payload(), sort_keys=True, indent=2)


# -- stages -------------------------------------------------------------


def _chain(cfg: ExperimentConfig):
    couplings = _parse_couplings(cfg.coupling_scheme, cfg.m_max // 2)
    return build_chain(ChainSpec.default(cfg.m_max, couplings=couplings))


def _stage_chain(cfg: ExperimentConfig, get_chain) -> tuple[StageResult, dict]:
    stage = StageResult("chain")
    chain = get_chain()
    sem = verify_semilattice(chain)
    stage.add(
        "chain-idempotency",
        "every chain element squares to itself",
        "exact",
        f"{chain.m_max} idempotents on dimension {chain.truncation_dim}",
        sem.idempotent,
    )
    stage.add(
        "semilattice-product-table",
        "product of the m-th and n-th idempotents is the min(m, n)-th",
        "all pairs exact",
        f"{sem.pairs_checked} pairs, max deviation {sem.max_abs_deviation}",
        sem.passed,
    )
    profile = norm_profile(chain, cfg.tol)
    stage.add(
        "norm-profile",
        "odd norms are 1; even norms dominate the coupling norm",
        "all indices in bounds",
        f"max norm {max(p.norm for p in profile)}",
        all(p.ok for p in profile),
    )
    evens = [(p.norm, p.predicted) for p in profile if p.index % 2 == 0]
    stage.add(
        "even-norm-formula",
        "even norms equal sqrt(1 + |b|^2)",
        "within 1e-8",
        f"max error {max((abs(a - b) for a, b in evens), default=0.0)}",
        all(bound_holds(max(pair), min(pair), chain.truncation_dim, 1e-8) for pair in evens),
        bound=1e-8,
    )
    series = {
        "norm_profile": [["index", "norm", "lower", "predicted", "ok"]]
        + [[p.index, p.norm, p.lower, p.predicted, int(p.ok)] for p in profile]
    }
    return stage, series


def _stage_generate(cfg: ExperimentConfig, get_chain) -> tuple[StageResult, dict]:
    stage = StageResult("generate")
    chain = get_chain()
    gens = orthogonal_generators(chain)
    weights = _weights_for(chain.generators, cfg.weight_scheme)
    # certify_generation checks its generators' orthogonality table once and
    # raises if it fails; this stage's generators must be the ones it certified
    cert = certify_generation(chain, weights, cfg.r_max, cfg.tol)
    stage.add(
        "generator-orthogonality",
        "telescoping differences are pairwise-orthogonal idempotents",
        "exact",
        f"{len(gens)} generators",
        len(gens) == len(cert.generators) and all(map(Matrix.equals, gens, cert.generators)),
    )
    stage.add(
        "generation-geometric-bound",
        "residuals of rescaled residual-generator powers obey the geometric bound",
        "residual <= bound for all (m, r)",
        f"max(residual - bound) = {float((cert.residuals - cert.bounds).max())}",
        cert.passed,
    )
    stage.add(
        "recovered-span",
        "recovered generators span the chain algebra",
        "equal spans",
        "exact rank test",
        same_span(chain.generators, chain.family),
    )
    # every residual and bound reads the weights only through their
    # numerators, so proportional numerators give identical series
    nums, scaled = weights.numerators, weights.scaled(3).numerators
    invariant = bool(np.all(nums * scaled[0] == scaled * nums[0]))
    stage.add(
        "weight-scale-invariance",
        "scaling all weights leaves every residual unchanged",
        "identical residual series",
        "compared after scaling by 3",
        invariant,
    )
    return stage, {"generation_residuals": cert.csv_rows()}


def _stage_diagonal(cfg: ExperimentConfig, get_chain) -> tuple[StageResult, dict]:
    stage = StageResult("diagonal")
    chain = get_chain()
    dim, gens = chain.truncation_dim, chain.generators.take(np.s_[:, None])
    report = certify_mbad(TensorElem(gens, gens, dim), chain, chain.family, cfg.tol)
    stage.add(
        "diagonal-multiplication-image",
        "the multiplication map sends the n-th diagonal to the n-th idempotent",
        "exact for all n",
        f"{chain.m_max} diagonals",
        all(image.equals(chain.e(n)) for n, image in enumerate(report.images, start=1)),
    )
    ident = Matrix.identity(dim)
    stage.add(
        "unitized-diagonal-image",
        "unitized diagonals map to the identity",
        "exact for all n",
        f"{chain.m_max} unitized diagonals",
        all(image.equals(ident) for image in report.unitized_images),
    )
    stage.add(
        "multiplier-bound-certificate",
        "commutators vanish and the multiplier constant is zero",
        "C = 0, all elements pass",
        f"C = {report.multiplier_constant}, K = {report.projection_sup}",
        report.verdict and report.multiplier_constant == 0.0,
    )
    demos = {t: expectation_norm_demo(t) for t in (1, 10, 100)}
    demo_norm_err = max(abs(demo.skew_norm - math.sqrt(1.0 + t * t)) for t, demo in demos.items())
    stage.add(
        "expectation-fixed-point",
        "the diagonal expectation maps the range projection to the skew idempotent",
        "exact recovery, norm sqrt(1 + t^2) within 1e-8",
        f"max norm error {demo_norm_err}",
        all(demo.matches_exactly for demo in demos.values()) and demo_norm_err <= 1e-8,
        bound=1e-8,
    )
    # x has seeded rational entries: numerators in [-32, 32] over 16
    rng = Pcg64(_stage_seed(cfg.seed, "diagonal"))
    d2 = full_matrix_diagonal(2)
    x = Matrix.from_stack(Stack.read(rng.integers(-32, 33, (2, 2)), rng.integers(-32, 33, (2, 2)), 16))
    image, expected = expectation_from_diagonal(d2, x), Matrix.identity(2) * x.entry(0, 0)
    exp_report = certify_expectation(d2, [x], [Matrix.identity(2), Matrix.identity(2) * Fraction(3, 2)])
    stage.add(
        "expectation-commutant-projection",
        "full-matrix-algebra expectation lands on the scalar part and fixes the commutant",
        "E(x) = x_11 * identity; commutant fixed",
        f"deviation {image.max_abs_diff(expected)}",
        image.equals(expected) and exp_report.passed,
    )
    return stage, {}


def _stage_embed(cfg: ExperimentConfig, get_chain) -> tuple[StageResult, dict]:
    stage = StageResult("embed")
    fam = RankOneFamily.build(cfg.n_max)
    fam_report = certify_E_family(fam, trials=cfg.trials, seed=_stage_seed(cfg.seed, "family"), tol=cfg.tol)
    stage.add(
        "rank-one-family",
        "idempotents of norm 3, pairwise-zero products, contained ranges, exact coefficient-sum witness",
        "all properties hold",
        f"max norm error {fam_report.max_norm_error}",
        fam_report.passed,
    )
    rng = Pcg64(_stage_seed(cfg.seed, "sweep"))
    sweep_ok = True
    worst_gap = 0.0
    inv_pi = 1.0 / math.pi
    for _ in range(cfg.trials):
        size = int(rng.integers(1, 13))
        vec = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        _, sweep_val = best_subset_sum(list(vec), cross_check=False)
        _, brute_val = brute_force_best_subset(list(vec))
        gap = abs(sweep_val - brute_val)
        worst_gap = max(worst_gap, gap)
        l1 = float(np.abs(vec).sum())
        if gap > 1e-9 * max(1.0, brute_val) or sweep_val < l1 * inv_pi * (1 - 1e-12):
            sweep_ok = False
    stage.add(
        "subset-sweep-optimality",
        "half-plane sweep matches brute force and dominates the 1/pi bound",
        f"{cfg.trials} seeded instances",
        f"max |sweep - brute| = {worst_gap}",
        sweep_ok,
    )
    circle = unit_circle_sweep_ratios([8, 16, 32, 64])
    ratios = [r for _, _, r in circle]
    circle_ok = all(r > inv_pi for r in ratios) and all(b < a for a, b in zip(ratios, ratios[1:]))
    stage.add(
        "unit-circle-ratios",
        "roots-of-unity ratios decrease toward 1/pi and stay above it",
        "decreasing, all > 1/pi",
        f"ratios {ratios}",
        circle_ok,
    )
    emb = certify_embedding_bounds(
        n_max=cfg.n_max,
        f_cap=cfg.f_cap,
        s_max=cfg.s_max,
        trials=cfg.trials,
        seed=_stage_seed(cfg.seed, "embed"),
        tol=cfg.tol,
        csv_scheme=cfg.trace_scheme,
    )
    stage.add(
        "embedding-norm-bounds",
        "block sup norm within [l1/pi, 3 l1]; upper ratio tight on a single index",
        "ratios in bounds",
        f"ratio range [{emb.min_sup_ratio}, {emb.max_sup_ratio}]",
        emb.lower_ok and emb.upper_ok and abs(emb.single_index_ratio - 3.0) <= 1e-9,
    )
    stage.add(
        "embedding-multiplicativity",
        "blockwise products agree with pointwise coefficient products",
        "B_i B_j = delta_ij B_i exactly for every subset size",
        f"{sum(k * k for k in emb.mult_sizes)} basis products, subset sizes {emb.mult_sizes[0]}-{emb.mult_sizes[-1]}",
        emb.mult_exact,
    )
    stage.add(
        "trace-norm-bound",
        "trace-weighted norm at most 3 sup|a| for both schemes, and at most the sup norm",
        "all trials in bounds",
        f"max trace/inf ratio {emb.max_trace_to_inf}",
        emb.trace_ok and emb.trace_le_sup_ok,
        bound=3.0,
    )
    series = {"embedding_ratios": emb.csv_rows()}
    return stage, series


# each stage takes the config and a function that returns the run's chain
_STAGES = {
    "chain": _stage_chain,
    "generate": _stage_generate,
    "diagonal": _stage_diagonal,
    "embed": _stage_embed,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run the selected certification stages; failures are recorded and
    the run continues to completion.  The chain is built once, by the first
    stage that asks for it; a build that raises is retried by each later
    stage, so each of them records its own stage error."""
    cfg.validate()
    get_chain = functools.cache(lambda: _chain(cfg))
    names = list(_STAGES) if cfg.subcommand == "all" else [cfg.subcommand]
    stages: list[StageResult] = []
    series: dict = {}
    timings: dict = {}
    for name in names:
        start = time.perf_counter()
        try:
            stage, stage_series = _STAGES[name](cfg, get_chain)
            series.update(stage_series)
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            stage = StageResult(name)
            stage.add(
                f"{name}-stage-error",
                "stage executed without raising",
                "no exception",
                repr(exc),
                False,
            )
        timings[name] = time.perf_counter() - start
        stages.append(stage)
    overall = all(s.passed for s in stages)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "stage_seconds": timings,
        "version": __version__,
    }
    return RunReport(config=asdict(cfg), stages=stages, overall=overall, series=series, meta=meta)


def emit_report(report: RunReport, fmt: str, out_dir) -> list[Path]:
    """Write report.json and/or the CSV series; deterministic and
    idempotent on re-emission."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        doc = {"report": report.payload(), "meta": report.meta}
        path = out / "report.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(path)
    if fmt in ("csv", "both"):
        import csv

        for name, rows in report.series.items():
            path = out / f"{name}.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            written.append(path)
    return written


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opalg",
        description="Certify chain, generation, diagonal and embedding properties at finite truncation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} suite" if name != "all" else "run every suite")
        # one flag per config field after subcommand, taken as a string;
        # build_config converts it and validate checks it, as for a config file
        for f in fields(ExperimentConfig)[1:]:
            flag = "--out" if f.name == "out_dir" else "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name)
        p.add_argument("--config", dest="config_file")
    return parser


def build_config(argv) -> ExperimentConfig:
    """Defaults, then config-file values, then explicit flags."""
    args = _build_parser().parse_args(argv)
    cfg = ExperimentConfig(subcommand=args.subcommand)
    if args.config_file:
        try:
            loaded = json.loads(Path(args.config_file).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config_file!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {loaded!r}")
        known = {f.name for f in fields(ExperimentConfig)}
        for key, value in loaded.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, value)
        cfg.subcommand = args.subcommand
    for f in fields(ExperimentConfig)[1:]:
        value = getattr(args, f.name)
        if value is not None:
            # a value that is not of its field's type stays a string for validate to reject
            with contextlib.suppress(ValueError):
                value = type(f.default)(value)
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
    except ConfigError as exc:
        print(f"opalg: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    emit_report(report, cfg.format, cfg.out_dir)
    for stage in report.stages:
        for check in stage.checks:
            flag = "pass" if check.passed else "FAIL"
            print(f"[{stage.name}] {flag} {check.name}: {check.observed}")
    print(f"overall: {'pass' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
