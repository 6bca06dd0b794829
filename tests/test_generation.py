"""Single-generator recovery at the geometric rate."""
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opalg import (
    CertificationError,
    ChainSpec,
    Matrix,
    WeightSeq,
    build_chain,
    certify_generation,
    op_norm,
    orthogonal_generators,
    orthogonality_table,
    same_span,
)
from opalg import generation, matrices
from opalg.generation import _weight_powers
from opalg.matrices import DEFAULT_TOL, bound_holds
import pairwise
from pairwise import agree, rescaled_generators
from test_chains import NORM_CHAINS


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
                assert pairwise.is_zero(prod)
    acc = gens[0]
    for g in gens[1:]:
        acc = acc + g
    assert acc.equals(chain.e(6))


def single_generator(gens, weights):
    """b = sum_j l_j g_j, which is l_1 times the first rescaled generator."""
    return rescaled_generators(gens, weights)[0] * weights[0]


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
    b = single_generator(gens, w)
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


@given(
    st.integers(1, 8),
    st.one_of(st.none(), st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)),
    st.one_of(st.sampled_from([3, Fraction(7, 3)]),
              st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)),
)
@example(4, None, Fraction(7, 3))
@example(6, Fraction(1, 3), 3)
@settings(max_examples=30, deadline=None)
def test_weight_scaling_leaves_residuals_unchanged(m_max, ratio, factor):
    # every residual and bound reads the weights only through their
    # numerators, which scaling leaves proportional: this is the fact that
    # the weight-scale-invariance check stands for
    chain = build_chain(ChainSpec.default(m_max))
    if ratio is None:
        w = WeightSeq.norm_adaptive(orthogonal_generators(chain))
    else:
        w = WeightSeq(tuple(ratio**j for j in range(1, m_max + 1)))
    nums, scaled_nums = w.numerators, w.scaled(factor).numerators
    assert all(nums * scaled_nums[0] == scaled_nums * nums[0])
    base = certify_generation(chain, w, r_max=12)
    scaled = certify_generation(chain, w.scaled(factor), r_max=12)
    assert [(r.residual, r.bound) for r in base.records] == [(r.residual, r.bound) for r in scaled.records]


def test_recovered_span_matches_chain_span():
    chain = build_chain(ChainSpec.default(6))
    gens = orthogonal_generators(chain)
    for family in (chain.idempotents, chain.family):
        assert same_span(gens, family) and same_span(family, gens)
        assert not same_span(gens[:3], family)


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


def test_same_span_mixed_families_run_in_floats():
    # an exact family whose last member carries 2**-1100 E_01 against float
    # images moved by 1e-6 E_01: the pair is eliminated wholly in floats, as
    # the float images of both, instead of dividing an exact remainder by
    # its 2**-1100 pivot and overflowing when that row meets a float one
    chain = build_chain(ChainSpec.default(6))
    dim = chain.truncation_dim
    unit = Matrix.exact([[int((i, j) == (0, 1)) for j in range(dim)] for i in range(dim)])
    moved = list(chain.idempotents[:-1]) + [chain.e(6) + unit * Fraction(1, 2**1100)]
    floats = [m.to_float() for m in chain.idempotents[:-1]] + [chain.e(6).to_float() + unit.to_float() * 1e-6]
    as_floats = [m.to_float() for m in moved]
    assert same_span(moved, floats) is same_span(as_floats, floats) is False
    assert same_span(floats, moved) is same_span(floats, as_floats) is False
    assert same_span(moved, as_floats)


def three_rank_same_span(first, second, tol=1e-8):
    """The span oracle: the ranks of each family and of both together agree,
    from three separate eliminations."""
    def rank(mats):
        return len(pairwise.eliminate(list(mats), lambda k, r: r.max_abs() <= tol, coordinates=False)[0])

    return rank(first) == rank(second) == rank(list(first) + list(second))


def span_families():
    chain = build_chain(ChainSpec.default(6))
    gens = list(orthogonal_generators(chain))
    dim = chain.truncation_dim
    unit = Matrix.exact([[int((i, j) == (0, 1)) for j in range(dim)] for i in range(dim)])
    moved = list(chain.idempotents[:-1]) + [chain.e(6) + unit * Fraction(1, 2**1100)]
    exact = [list(chain.idempotents), gens, gens[:3], moved, moved[::-1], gens[3:] + [unit]]
    floats = [[m.to_float() for m in family] for family in exact]
    # a float family whose last element leaves the span by more than the tolerance
    floats.append(floats[0][:-1] + [floats[0][-1] + unit.to_float() * 1e-6])
    return exact, floats


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_two_elimination_span_matches_three_rank_oracle(backend):
    families = dict(zip(["exact", "float"], span_families()))[backend]
    verdicts = []
    for first in families:
        for second in families:
            verdicts.append(same_span(first, second))
            assert verdicts[-1] == three_rank_same_span(first, second)
    assert any(verdicts) and not all(verdicts)


def test_bound_comparison_allows_only_the_rounding_budget():
    # dim 11 gives a budget of 46 eps (residual + bound)
    eps, bound = sys.float_info.epsilon, 0.25
    assert bound_holds(bound * (1 + 20 * eps), bound, 11, 0.0)
    assert not bound_holds(bound * (1 + 200 * eps), bound, 11, 0.0)
    assert bound_holds(bound * (1 + 200 * eps), bound, 11, 200 * eps)
    assert not bound_holds(2 * bound, bound, 11, 0.0)
    # subnormal values: each rounding may lose the smallest subnormal
    assert bound_holds(3e-323, 1e-323, 3, 0.0)
    assert not bound_holds(1e-300, 1e-323, 3, 0.0)
    # dim 3 gives 4 dim + 2 = 14 such roundings
    assert bound_holds(14 * 5e-324, 0.0, 3, 0.0)
    assert not bound_holds(15 * 5e-324, 0.0, 3, 0.0)


def test_default_certificate_passes_without_tolerance():
    # the second-to-last generator meets its bound with equality at every
    # power, so only the rounding budget separates the two float readings;
    # at m_max 12 it is used (at the default m_max 10 the readings agree)
    chain = build_chain(ChainSpec.default(12))
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
        rescaled_generators(two_projections(), WeightSeq((Fraction(1, 2),)))
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


@pytest.mark.parametrize("name", NORM_CHAINS)
def test_norm_adaptive_weights_equal_the_per_matrix_loop(name, monkeypatch):
    # one stacked SVD gives each generator the norm it gives alone, so the
    # weights are the per-matrix loop's, as exact Fractions
    gens = orthogonal_generators(build_chain(NORM_CHAINS[name]))
    calls = []
    svd = matrices.singular_values
    counted = lambda m: calls.append(m.shape) or svd(m)
    monkeypatch.setattr(matrices, "singular_values", counted)
    monkeypatch.setattr(generation, "singular_values", counted)
    weights = WeightSeq.norm_adaptive(gens)
    assert calls == [(len(gens), *gens[0].shape)]
    monkeypatch.undo()
    assert weights.lambdas == pairwise.norm_adaptive(gens)


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


def product_loop_residuals(gens, weights, r_max):
    """The residuals as the powers give them: each rescaled residual
    generator (1/l_m) sum_{j>=m} l_j g_j raised power by power with exact
    products, and each norm(g_m - power) read by its own SVD."""
    out = []
    for m in range(len(gens)):
        rescaled = gens[m] * weights[m]
        for j in range(m + 1, len(gens)):
            rescaled = rescaled + gens[j] * weights[j]
        rescaled = rescaled * (1 / weights[m])
        power = rescaled
        for r in range(1, r_max + 1):
            out.append((m + 1, r, op_norm(gens[m] - power)))
            power = power @ rescaled
    return out


def conjugated_family(scale=1):
    """Exact complex orthogonal idempotents S E_kk S^-1, k = 1, 2, 3, for
    S = 1 + N with N strictly upper triangular, so S^-1 = 1 - N + N^2; the
    entries grow with ``scale``."""
    n = Matrix.exact([[0, (1, scale), 0], [0, 0, (Fraction(2, 3), 1)], [0, 0, 0]])
    one = Matrix.identity(3)
    s, inv = one + n, one - n + n @ n
    assert (s @ inv).equals(one)
    return [s @ Matrix.diag([int(i == k) for i in range(3)]) @ inv for k in range(3)]


couplings = st.lists(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12).filter(lambda x: x != 0),
    min_size=4,
    max_size=4,
)


@given(
    st.integers(1, 8),
    couplings,
    st.one_of(st.none(), st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)),
    st.integers(2, 9),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_residuals_match_product_loop(m_max, values, ratio, r_max):
    # the residuals read off -sum_{j>m} rho_j^r g_j are those of the exact
    # powers, bit for bit, for random rational couplings and both weight schemes
    values = sorted(values, key=abs)[: m_max // 2]
    chain = build_chain(ChainSpec.default(m_max, couplings=values))
    gens = orthogonal_generators(chain)
    if ratio is None:
        weights = WeightSeq.norm_adaptive(gens)
    else:
        weights = WeightSeq(tuple(ratio**j for j in range(1, m_max + 1)))
    cert = certify_generation(chain, weights, r_max=r_max, tol=0.0)
    assert [(r.index, r.power, r.residual) for r in cert.records] == product_loop_residuals(gens, weights, r_max)


def test_closed_form_matches_product_loop_on_complex_families():
    # exact complex generators, on int64 and on object kernels
    for scale in (1, 2**40):
        gens = conjugated_family(scale)
        weights = WeightSeq((Fraction(1, 2), Fraction(1, 5), Fraction(1, 7)))
        cert = certify_generation(gens, weights, r_max=6, tol=1e-9)
        assert [(r.index, r.power, r.residual) for r in cert.records] == product_loop_residuals(gens, weights, 6)
    # float families take the same closed form in floats, up to rounding
    floats = [g.to_float() for g in conjugated_family()]
    cert = certify_generation(floats, weights, r_max=6)
    for rec, (_, _, loop) in zip(cert.records, product_loop_residuals(floats, weights, 6)):
        assert rec.residual == pytest.approx(loop, rel=1e-12, abs=1e-15)


def chain_generators(m_max, values):
    chain = build_chain(ChainSpec.default(m_max, couplings=sorted(values, key=abs)[: m_max // 2]))
    return list(orthogonal_generators(chain))


@given(
    st.one_of(st.builds(chain_generators, st.integers(1, 8), couplings),
              st.sampled_from([1, 2**40]).map(conjugated_family)),
    st.one_of(st.none(), st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)),
    st.integers(2, 9),
)
@example(conjugated_family(), None, 2)
@example(chain_generators(8, [Fraction(1, 3), Fraction(-5, 2), 7, Fraction(9, 4)]), Fraction(1, 3), 2)
@settings(max_examples=60, deadline=None)
def test_sparse_residuals_equal_the_dense_product(gens, ratio, r_max):
    # residual numerators kept as one running tail sum on the family's
    # support are the dense product's, so every residual has the same bits,
    # on real and complex families and both weight schemes; the last index,
    # whose tail is empty, is not yielded
    if ratio is None:
        weights = WeightSeq.norm_adaptive(gens)
    else:
        weights = WeightSeq(tuple(ratio**j for j in range(1, len(gens) + 1)))
    family = matrices.stack(gens)
    got = list(generation._tail_residuals(family, _weight_powers(weights, r_max)))
    assert [m for m, _ in got] == list(range(len(gens) - 2, -1, -1))
    assert pairwise.residual_stack(family, weights, len(gens) - 1, r_max) is None
    for m, residual in got:
        want = pairwise.residual_stack(family, weights, m, r_max)
        assert residual.shape == want.shape and residual.tobytes() == want.tobytes()


def pairwise_table(gens):
    n = len(gens)
    return np.array([
        [agree(gens[i] @ gens[j], gens[i] if i == j else Matrix.zeros(gens[i].rows), DEFAULT_TOL) for j in range(n)]
        for i in range(n)
    ])


def table_families():
    chain = build_chain(ChainSpec.default(6))
    gens = list(orthogonal_generators(chain))
    dim = chain.truncation_dim
    # e_1 + E_{0,1} is idempotent, but it no longer kills g_2 from the left
    unit = Matrix.exact([[int((i, j) == (0, 1)) for j in range(dim)] for i in range(dim)])
    yield "telescoping", gens
    yield "chain idempotents", list(chain.idempotents)
    yield "one non-idempotent", gens[:2] + [gens[2] * 2] + gens[3:]
    yield "one non-orthogonal pair", [gens[0] + unit] + gens[1:]
    yield "complex", conjugated_family()
    yield "complex, object kernel", conjugated_family(2**40)
    yield "complex, one non-idempotent", conjugated_family()[:2] + [conjugated_family()[2] * (1, 1)]
    yield "float", [g.to_float() for g in gens]
    yield "float, one off", [g.to_float() for g in gens[:-1]] + [gens[-1].to_float() * 1.001]


@pytest.mark.parametrize("name, gens", list(table_families()))
def test_orthogonality_table_matches_pairwise_verdicts(name, gens, monkeypatch):
    expected = pairwise_table(gens)
    # the generators or their stack, and row blocks of one generator at a time
    for family in (gens, matrices.stack(gens)):
        assert (orthogonality_table(family) == expected).all()
        with monkeypatch.context() as patched:
            patched.setattr(matrices, "_BLOCK_ENTRIES", 1)
            assert (orthogonality_table(family) == expected).all()


def test_orthogonality_table_names_the_broken_entries():
    families = dict(table_families())
    table = orthogonality_table(families["one non-idempotent"])
    assert not table[2, 2] and table.sum() == 36 - 1
    table = orthogonality_table(families["one non-orthogonal pair"])
    assert table.diagonal().all() and not table[0, 1]
    assert orthogonality_table([]).shape == (0, 0)
    with pytest.raises(CertificationError, match="orthogonal"):
        certify_generation(families["one non-orthogonal pair"], WeightSeq.norm_adaptive(families["telescoping"]), 4)


def test_rescaled_generators_equal_their_defining_sums():
    chain = build_chain(ChainSpec.default(8, couplings=[Fraction(1, 3), 1, Fraction(5, 2), 4]))
    gens = orthogonal_generators(chain)
    weights = WeightSeq.norm_adaptive(gens)
    for m, rescaled in enumerate(rescaled_generators(gens, weights)):
        direct = gens[m]
        for j in range(m + 1, len(gens)):
            direct = direct + gens[j] * (weights[j] / weights[m])
        assert rescaled.equals(direct)
    with pytest.raises(ValueError, match="weights"):
        rescaled_generators(gens, WeightSeq(weights.lambdas[:-1]))


def test_certificate_makes_no_exact_products_and_one_svd_per_generator(monkeypatch):
    chain = build_chain(ChainSpec.default(12))
    gens = orthogonal_generators(chain)
    weights = WeightSeq.norm_adaptive(gens)
    counts = {"matmul": 0, "svd": 0}
    matmul, svd = Matrix.__matmul__, matrices.singular_values

    def counted_matmul(a, b):
        counts["matmul"] += 1
        return matmul(a, b)

    def counted_svd(m):
        counts["svd"] += 1
        return svd(m)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(generation, "singular_values", counted_svd)
    assert orthogonality_table(gens).all()
    cert = certify_generation(chain, weights, r_max=40, tol=0.0)
    assert cert.passed
    # one stacked SVD for the generators' norms, one per generator with a
    # nonempty tail for its residuals
    assert counts == {"matmul": 0, "svd": len(gens)}
