"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from opalg import (
    ChainSpec,
    Matrix,
    WeightSeq,
    best_subset_sum,
    brute_force_best_subset,
    build_chain,
    bimodule_commutator,
    certify_E_family,
    certify_embedding_bounds,
    certify_generation,
    certify_mbad,
    expectation_norm_demo,
    norm_profile,
    pi_map,
    unit_circle_sweep_ratios,
    unitize_diagonal,
    verify_semilattice,
    RankOneFamily,
)
from opalg.cli import ExperimentConfig, main, payload_json, run_experiment

import pairwise

INV_PI = 1.0 / math.pi


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                flag = "PASS" if ok else "FAIL"
                print(f"[criterion {number:02d}] {flag} - {description}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def chain20():
    return build_chain(ChainSpec.default(20))


@criterion(1, "semilattice exactness: 400 products match the min rule with zero tolerance")
def test_criterion_1_semilattice_exactness(chain20):
    report = verify_semilattice(chain20)
    assert report.pairs_checked == 400
    assert report.passed
    assert report.max_abs_deviation == 0.0


@criterion(2, "unbounded idempotents: even norms equal sqrt(1 + k^2) within 1e-8")
def test_criterion_2_unbounded_idempotents(chain20):
    profile = norm_profile(chain20)
    for k in range(1, 11):
        entry = profile[2 * k - 1]
        assert entry.index == 2 * k
        assert abs(entry.norm - math.sqrt(1 + k * k)) <= 1e-8
        assert entry.norm >= k


@criterion(3, "generation rate: geometric bound for m <= 6, r <= 40; two-projection case is 2^-r")
def test_criterion_3_generation_rate():
    chain = build_chain(ChainSpec.default(6))
    weights = WeightSeq.norm_adaptive(chain.generators)
    cert = certify_generation(chain, weights, r_max=40)
    assert cert.verdicts.shape == (6, 40)
    assert cert.verdicts.all()
    assert cert.passed
    pair = [Matrix.diag([1, 0]), Matrix.diag([0, 1])]
    analytic = certify_generation(pair, WeightSeq((Fraction(1, 2), Fraction(1, 4))), r_max=40)
    assert (np.abs(analytic.residuals[0] - 2.0 ** -np.arange(1, 41)) <= 1e-10).all()
    assert analytic.passed


@criterion(4, "diagonal identities: images, commutators, unitized images exact; C = 0")
def test_criterion_4_diagonal_identities():
    chain = build_chain(ChainSpec.default(10))
    deltas = [pairwise.build_delta(chain, n) for n in range(1, 11)]
    for n, delta in enumerate(deltas, start=1):
        assert pi_map(delta).equals(chain.e(n))
    for m in range(1, 11):
        for delta in deltas:
            assert pairwise.is_zero(bimodule_commutator(chain.e(m), delta).flatten())
    ident = Matrix.identity(chain.truncation_dim)
    for delta in deltas:
        p = pi_map(delta)
        m, image = unitize_diagonal(delta, p, ident - p)
        assert pi_map(m).equals(ident) and image.equals(ident)
    report = certify_mbad(pairwise.batched(pairwise.increments(deltas)), chain, list(chain.idempotents))
    assert report.verdict
    assert report.multiplier_constant == 0.0


@criterion(5, "expectation demo: E(p) = e exactly and norm(e) = sqrt(1 + t^2) within 1e-8")
def test_criterion_5_expectation_demo():
    for t in (1, 10, 100):
        demo = expectation_norm_demo(t)
        assert demo.matches_exactly
        assert demo.expected.equals(demo.skew)
        assert abs(demo.skew_norm - math.sqrt(1 + t * t)) <= 1e-8
        assert demo.expectation_norm == demo.skew_norm


@criterion(6, "rank-one family: exact squares and cross products, norm 3 within 1e-9, exact witness")
def test_criterion_6_rank_one_family():
    fam = RankOneFamily.build(12)
    for j in range(1, 13):
        ej = pairwise.E(fam, j)
        assert (ej @ ej).equals(ej)
        for k in range(1, 13):
            if j != k:
                assert pairwise.is_zero(ej @ pairwise.E(fam, k))
    report = certify_E_family(fam, trials=100, seed=2026, tol=1e-9)
    assert report.max_norm_error <= 1e-9
    assert report.witness_trials == 100
    assert report.witness_exact
    assert report.witness_dominated
    assert report.passed


@criterion(7, "subset-sum inequality: sweep = brute force on 200 instances; ratios decrease toward 1/pi")
def test_criterion_7_subset_sum_inequality():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        size = int(rng.integers(1, 13))
        vec = list(rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))
        _, sweep_val = best_subset_sum(vec, cross_check=False)
        _, brute_val = brute_force_best_subset(vec)
        assert abs(sweep_val - brute_val) <= 1e-9 * max(1.0, brute_val)
        assert sweep_val >= sum(abs(z) for z in vec) * INV_PI * (1 - 1e-12)
    ratios = unit_circle_sweep_ratios([8, 16, 32, 64])
    values = [r for _, _, r in ratios]
    assert all(r > INV_PI for r in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert abs(values[0] - 0.3266) <= 5e-4


@criterion(8, "embedding bounds: l1/pi <= sup norm <= 3 l1 on 100 trials; upper tight; multiplicative")
def test_criterion_8_embedding_bounds(embedding_report):
    report = embedding_report
    assert report.trials == 100
    assert report.lower_ok
    assert report.upper_ok
    assert report.min_sup_ratio >= INV_PI
    assert report.max_sup_ratio <= 3.0 + 1e-9
    assert abs(report.single_index_ratio - 3.0) <= 1e-9
    assert report.mult_exact


@criterion(9, "trace-norm bound: at most 3 sup|a| for both schemes and below the sup norm on all trials")
def test_criterion_9_trace_norm_bound(embedding_report):
    assert embedding_report.trace_ok
    assert embedding_report.max_trace_to_inf <= 3.0 + 1e-9
    assert embedding_report.trace_le_sup_ok


@pytest.fixture(scope="module")
def embedding_report():
    return certify_embedding_bounds(n_max=10, f_cap=512, s_max=8, trials=100, seed=2026)


@criterion(10, "reproducibility: identical config and seed give byte-identical payloads; exit code tracks verdict")
def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    kwargs = dict(subcommand="all", m_max=6, n_max=6, f_cap=32, s_max=3, trials=10, r_max=10, seed=17)
    first = payload_json(run_experiment(ExperimentConfig(**kwargs)))
    second = payload_json(run_experiment(ExperimentConfig(**kwargs)))
    assert first.encode() == second.encode()
    out = str(tmp_path)
    assert main(["chain", "--m-max", "6", "--out", out]) == 0
    assert main(["chain", "--m-max", "4", "--coupling-scheme", "list:9,1", "--out", out]) == 2

    def failing_build_chain(spec):
        raise ValueError("chain construction failed")

    monkeypatch.setattr("opalg.cli.build_chain", failing_build_chain)
    assert main(["chain", "--m-max", "6", "--out", out]) == 1
