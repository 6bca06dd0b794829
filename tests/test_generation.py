"""Single-generator recovery at the geometric rate."""
import sys
from fractions import Fraction

import pytest

from opalg import (
    ChainSpec,
    Matrix,
    WeightSeq,
    build_chain,
    certify_generation,
    op_norm,
    orthogonal_generators,
    same_span,
    single_generator,
)
from opalg.generation import _bound_holds


def two_projections():
    return [Matrix.diag([1, 0]), Matrix.diag([0, 1])]


def test_orthogonal_generators_telescope():
    chain = build_chain(ChainSpec.default(6))
    gens = orthogonal_generators(chain)
    assert len(gens) == 6
    for i in range(6):
        for j in range(6):
            prod = gens[i] @ gens[j]
            if i == j:
                assert prod.equals(gens[i])
            else:
                assert prod.is_zero()
    acc = gens[0]
    for g in gens[1:]:
        acc = acc + g
    assert acc.equals(chain.e(6))


def test_single_term_generator():
    e1 = Matrix.diag([1, 0])
    b = single_generator([e1], WeightSeq((Fraction(1, 2),)))
    assert b.equals(e1 * Fraction(1, 2))


def test_generator_is_linear_in_orthogonal_terms():
    p1, p2 = two_projections()
    b = single_generator([p1, p2], WeightSeq((Fraction(1, 2), Fraction(1, 4))))
    assert b.equals(Matrix.diag([Fraction(1, 2), Fraction(1, 4)]))


def test_generator_norm_triangle_bound():
    chain = build_chain(ChainSpec.default(6))
    gens = orthogonal_generators(chain)
    w = WeightSeq.norm_adaptive(gens)
    b = single_generator(chain, w)
    assert op_norm(b) <= sum(float(l) * op_norm(g) for l, g in zip(w.lambdas, gens)) + 1e-9


def test_two_projection_residuals_are_powers_of_two():
    # (2b)^r = p1 + 2^-r p2, so the residual norm is exactly 2^-r
    cert = certify_generation(two_projections(), WeightSeq((Fraction(1, 2), Fraction(1, 4))), r_max=30)
    for rec in cert.records:
        if rec.index == 1:
            assert rec.residual == pytest.approx(2.0 ** -rec.power, abs=1e-10)
            assert rec.passed
    assert cert.passed


def test_single_generator_recovers_itself_exactly():
    cert = certify_generation([Matrix.diag([1, 0])], WeightSeq((Fraction(1, 2),)), r_max=5)
    assert all(rec.residual == 0.0 and rec.bound == 0.0 for rec in cert.records)
    assert cert.passed


def test_default_chain_certificate_passes():
    chain = build_chain(ChainSpec.default(6))
    w = WeightSeq.norm_adaptive(orthogonal_generators(chain))
    cert = certify_generation(chain, w, r_max=40)
    assert cert.passed
    assert len(cert.records) == 6 * 40
    # residuals decay geometrically with ratio at most 1/4
    for m in range(1, 6):
        series = [r.residual for r in cert.records if r.index == m]
        assert series[-1] <= series[0] * 0.26 ** (len(series) - 10)


def test_weight_scaling_leaves_residuals_unchanged():
    chain = build_chain(ChainSpec.default(4))
    w = WeightSeq.norm_adaptive(orthogonal_generators(chain))
    base = certify_generation(chain, w, r_max=12)
    scaled = certify_generation(chain, w.scaled(Fraction(7, 3)), r_max=12)
    assert [r.residual for r in base.records] == [r.residual for r in scaled.records]


def test_recovered_span_matches_chain_span():
    chain = build_chain(ChainSpec.default(6))
    gens = orthogonal_generators(chain)
    assert same_span(gens, chain.idempotents)
    assert not same_span(gens[:3], chain.idempotents)


def test_same_span_is_exact_on_exact_families():
    # e_6 + 2**-1100 E_01 reads as e_6 in floats, but it leaves the span
    chain = build_chain(ChainSpec.default(6))
    dim = chain.truncation_dim
    unit = Matrix.exact([[int((i, j) == (0, 1)) for j in range(dim)] for i in range(dim)])
    moved = list(chain.idempotents[:-1]) + [chain.e(6) + unit * Fraction(1, 2**1100)]
    assert not same_span(chain.idempotents, moved)
    assert same_span(moved, moved[::-1])
    # float families keep their tolerance
    floats = [m.to_float() for m in chain.idempotents]
    assert same_span(floats, [m.to_float() for m in orthogonal_generators(chain)])
    assert same_span(floats, [m.to_float() for m in moved])


def test_bound_comparison_allows_only_the_rounding_budget():
    # dim 11 and power 2 give a budget of 46 eps (residual + bound)
    eps, bound = sys.float_info.epsilon, 0.25
    assert _bound_holds(bound * (1 + 20 * eps), bound, 11, 2, 0.0)
    assert not _bound_holds(bound * (1 + 200 * eps), bound, 11, 2, 0.0)
    assert _bound_holds(bound * (1 + 200 * eps), bound, 11, 2, 200 * eps)
    assert not _bound_holds(2 * bound, bound, 11, 2, 0.0)
    # subnormal values: each rounding may lose the smallest subnormal
    assert _bound_holds(3e-323, 1e-323, 3, 500, 0.0)
    assert not _bound_holds(1e-300, 1e-323, 3, 500, 0.0)


def test_default_certificate_passes_without_tolerance():
    # the second-to-last generator meets its bound with equality at every
    # power, so only the rounding budget separates the two float readings
    chain = build_chain(ChainSpec.default(10))
    w = WeightSeq.norm_adaptive(orthogonal_generators(chain))
    cert = certify_generation(chain, w, r_max=40, tol=0.0)
    assert cert.passed
    assert max(r.residual - r.bound for r in cert.records) > 0.0


def test_weight_validation():
    with pytest.raises(ValueError, match="decreasing"):
        WeightSeq((Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ValueError, match="positive"):
        WeightSeq((Fraction(1, 2), Fraction(0)))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="weights"):
        single_generator(two_projections(), WeightSeq((Fraction(1, 2),)))
    with pytest.raises(ValueError, match="weights"):
        certify_generation(two_projections(), WeightSeq((Fraction(1, 2),)), r_max=5)


def test_r_max_too_small_rejected():
    with pytest.raises(ValueError, match="r_max"):
        certify_generation(two_projections(), WeightSeq((Fraction(1, 2), Fraction(1, 4))), r_max=1)


def test_norm_adaptive_weights_decrease_and_dominate_norms():
    chain = build_chain(ChainSpec.default(8))
    gens = orthogonal_generators(chain)
    w = WeightSeq.norm_adaptive(gens)
    assert all(b < a for a, b in zip(w.lambdas, w.lambdas[1:]))
    total = sum(float(l) * op_norm(g) for l, g in zip(w.lambdas, gens))
    assert total <= sum(0.25**j for j in range(1, 9))


def test_certificate_csv_rows_shape():
    cert = certify_generation(two_projections(), WeightSeq((Fraction(1, 2), Fraction(1, 4))), r_max=4)
    rows = cert.csv_rows()
    assert rows[0] == ["m", "r", "residual", "bound", "passed"]
    assert len(rows) == 1 + 2 * 4


def test_certificate_serializes_to_json():
    cert = certify_generation(two_projections(), WeightSeq((Fraction(1, 2), Fraction(1, 4))), r_max=4)
    assert cert.passed is True
    assert cert.per_index == {1: True, 2: True}
    assert len(cert.records) == 8
