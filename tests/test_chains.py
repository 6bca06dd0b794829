"""Chain construction, the min-rule product table, and norm profiles."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opalg import (
    CertificationError,
    ChainSpec,
    Matrix,
    TruncationError,
    build_chain,
    norm_profile,
    op_norm,
    verify_semilattice,
)
from opalg import chains, matrices
from opalg.chains import Chain
from opalg.cli import ExperimentConfig, run_experiment
from opalg.generation import orthogonal_generators

import pairwise


def test_single_idempotent_is_padded_projection():
    chain = build_chain(ChainSpec.default(1))
    assert chain.truncation_dim == 3
    assert chain.e(1).equals(Matrix.diag([1, 0, 0]))


def test_zero_coupling_gives_plain_projection():
    spec = ChainSpec(m_max=2, dims=(1, 2, 3), couplings=(0,))
    chain = build_chain(spec)
    assert chain.e(2).equals(Matrix.diag([1, 1, 0]))


def test_unit_coupling_block_form():
    spec = ChainSpec(m_max=2, dims=(1, 2, 3), couplings=(1,))
    chain = build_chain(spec)
    assert chain.e(2).equals(Matrix.exact([[1, 0, 0], [0, 1, 1], [0, 0, 0]]))


def test_adjacent_products_absorb():
    chain = build_chain(ChainSpec.default(6))
    assert (chain.e(3) @ chain.e(4)).equals(chain.e(3))
    assert (chain.e(4) @ chain.e(3)).equals(chain.e(3))
    assert (chain.e(1) @ chain.e(1)).equals(chain.e(1))


def test_semilattice_table_exact():
    report = verify_semilattice(build_chain(ChainSpec.default(8)))
    assert report.passed and report.idempotent and report.max_abs_deviation == 0.0
    assert report.pairs_checked == 64


def test_norm_profile_closed_form():
    chain = build_chain(ChainSpec.default(10))
    profile = norm_profile(chain)
    for entry in profile:
        assert entry.ok
        if entry.index % 2 == 1:
            assert entry.norm == pytest.approx(1.0, abs=1e-9)
        else:
            k = entry.index // 2
            assert entry.norm == pytest.approx(math.sqrt(1 + k * k), abs=1e-8)
            assert entry.norm >= k


def test_norm_profile_is_strictly_increasing_on_even_indices():
    chain = build_chain(ChainSpec.default(20))
    evens = [e.norm for e in norm_profile(chain) if e.index % 2 == 0]
    assert all(b > a for a, b in zip(evens, evens[1:]))


# chains whose norms the stacked reads must give bit for bit; the
# norm-adaptive weights of test_generation read them too
NORM_CHAINS = {
    "exact": ChainSpec.default(10),
    "float": ChainSpec.default(10, couplings=(1.5, 2.5, 3.5, 4.5, 5.5)),
    "rational": ChainSpec.default(12, couplings=[Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), Fraction(7, 3),
                                                 Fraction(5, 2), 3]),
    "2**300": ChainSpec.default(10, couplings=(2**300,) * 5),
    "2**-62": ChainSpec.default(10, couplings=(Fraction(1, 2**62), Fraction(1, 2**62), Fraction(1, 3),
                                               Fraction(1, 2), 1)),
}


@pytest.mark.parametrize("name", NORM_CHAINS)
def test_norm_profile_equals_per_matrix_norms(name, monkeypatch):
    # one stacked SVD gives each idempotent the norm it gives alone, bit for
    # bit, and the lower bounds are the coupling norms the spec measured
    chain = build_chain(NORM_CHAINS[name])
    calls = []
    svd = matrices.singular_values
    counted = lambda m: calls.append(m.shape) or svd(m)
    monkeypatch.setattr(matrices, "singular_values", counted)
    monkeypatch.setattr(chains, "singular_values", counted)
    profile = norm_profile(chain)
    assert calls == [(chain.m_max, chain.truncation_dim, chain.truncation_dim)]
    monkeypatch.undo()
    assert [e.norm for e in profile] == [op_norm(e) for e in chain.idempotents]
    couplings = chain.spec.couplings
    assert [e.lower for e in profile if e.index % 2 == 0] == [op_norm(b) for b in couplings]
    assert all(e.ok for e in profile)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_profile_past_float_range_reads_inf_without_a_warning():
    # the verdicts are array operations; like the Python floats they replace,
    # a prediction and a rounding budget past float range read inf silently
    profile = norm_profile(build_chain(ChainSpec.default(2, couplings=(1e308,))))
    assert [(e.lower, e.predicted, e.ok) for e in profile] == [(1.0, 1.0, True), (1e308, math.inf, True)]


def test_coupling_norms_take_one_svd_per_block_shape(monkeypatch):
    # gaps of widths 1 and 2: two block shapes, two stacked SVDs, and each
    # coupling keeps the norm it has alone
    calls = []
    svd = matrices.singular_values
    monkeypatch.setattr(chains, "singular_values", lambda m: calls.append(m.shape) or svd(m))
    spec = ChainSpec(m_max=6, dims=(1, 2, 3, 5, 7, 8, 9), couplings=(1, [[1, 1], [0, 2]], Fraction(5, 2)))
    assert sorted(calls) == [(1, 2, 2), (2, 1, 1)]
    monkeypatch.undo()
    assert spec.coupling_norms == tuple(op_norm(b) for b in spec.couplings)
    calls.clear()
    monkeypatch.setattr(chains, "singular_values", lambda m: calls.append(m.shape) or svd(m))
    ChainSpec.default(40)
    assert calls == [(20, 1, 1)]


def test_truncation_error_names_requirement():
    with pytest.raises(TruncationError, match="H_7"):
        ChainSpec(m_max=6, dims=(1, 2, 3, 4, 5, 6), couplings=(1, 2, 3))


def test_coupling_count_enforced():
    with pytest.raises(ValueError, match="couplings"):
        ChainSpec(m_max=4, dims=tuple(range(1, 6)), couplings=(1,))


def test_coupling_norms_must_not_decrease():
    with pytest.raises(ValueError, match="nondecreasing"):
        ChainSpec(m_max=4, dims=tuple(range(1, 6)), couplings=(2, 1))


def test_equal_coupling_norms_of_different_block_shapes_are_accepted():
    # both couplings have norm 2**15 exactly, but the SVD of the 1 x 2 block
    # reads one rounding low: the order check allows the rounding budget of
    # the norms it compares, not an absolute slack
    wide = Matrix.exact([[Fraction(8 * 2**15, 17), Fraction(15 * 2**15, 17)]])
    spec = ChainSpec(m_max=4, dims=(1, 2, 3, 4, 6), couplings=(Matrix.exact([[2**15]]), wide))
    assert spec.coupling_norms[1] < spec.coupling_norms[0] == 2**15
    assert verify_semilattice(build_chain(spec)).passed
    # a decrease well above that budget is still refused, at any scale
    for big in (2**400, 2.0**400):
        with pytest.raises(ValueError, match="nondecreasing"):
            ChainSpec(m_max=4, dims=tuple(range(1, 6)), couplings=(big, big * (1 - Fraction(1, 10**9))))


def test_padding_leaves_retained_block_unchanged():
    small = build_chain(ChainSpec.default(4))
    wide = build_chain(ChainSpec.default(4, dims=tuple(range(1, 9))))
    keep = list(range(small.truncation_dim))
    for a, b in zip(small.idempotents, wide.idempotents):
        assert pairwise.select(b, keep, keep).equals(a)
    small_norms = [e.norm for e in norm_profile(small)]
    wide_norms = [e.norm for e in norm_profile(wide)]
    assert small_norms == pytest.approx(wide_norms, abs=1e-12)


def test_operator_valued_coupling():
    # gaps of width 2 coupled by a rational 2 x 2 block
    block = Matrix.exact([[1, Fraction(1, 2)], [0, 2]])
    spec = ChainSpec(m_max=2, dims=(1, 3, 5), couplings=(block,))
    chain = build_chain(spec)
    assert verify_semilattice(chain).passed
    profile = norm_profile(chain)
    assert profile[1].norm >= op_norm(block) - 1e-9
    assert profile[1].norm == pytest.approx(math.sqrt(1 + op_norm(block) ** 2), abs=1e-8)
    # the same block given by its float entries, read at their binary value
    float_chain = build_chain(ChainSpec(m_max=2, dims=(1, 3, 5), couplings=(block.to_float().real.tolist(),)))
    assert all(map(Matrix.equals, float_chain.idempotents, chain.idempotents))


def test_scalar_coupling_on_wide_gaps_uses_rectangular_identity():
    spec = ChainSpec(m_max=2, dims=(2, 4, 7), couplings=(3,))
    chain = build_chain(spec)
    e2 = chain.e(2)
    assert e2.entry(2, 4) == (3, 0)
    assert e2.entry(3, 5) == (3, 0)
    assert e2.entry(2, 5) == (0, 0)
    assert verify_semilattice(chain).passed
    float_chain = build_chain(ChainSpec(m_max=2, dims=(2, 4, 7), couplings=(3.0,)))
    assert all(map(Matrix.equals, float_chain.idempotents, chain.idempotents))


def test_float_couplings_build_the_chain_of_their_binary_values():
    # the scalar policy: a float coupling is the rational it rounds to, so
    # float couplings build the exact chain, and its checks are exact
    floats = build_chain(ChainSpec.default(6, couplings=(1.5, 2.5, 3.5)))
    exact = build_chain(ChainSpec.default(6, couplings=(Fraction(3, 2), Fraction(5, 2), Fraction(7, 2))))
    for got, want in ((floats.family, exact.family), (floats.generators, exact.generators)):
        assert (got.den, got.bound, got.im) == (want.den, want.bound, want.im) and np.array_equal(got.re, want.re)
    report = verify_semilattice(floats)
    assert report.passed and report.max_abs_deviation == 0.0
    # 0.1 is not 1/10, and the chain says so
    tenth = build_chain(ChainSpec.default(2, couplings=(0.1,)))
    assert tenth.e(2).equals(build_chain(ChainSpec.default(2, couplings=(Fraction(0.1),))).e(2))
    assert not tenth.e(2).equals(build_chain(ChainSpec.default(2, couplings=(Fraction(1, 10),))).e(2))


rational = st.fractions(min_value=0, max_value=100, max_denominator=20)


@given(st.integers(1, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_random_rational_chains_satisfy_min_rule(m_max, data):
    count = m_max // 2
    values = sorted(data.draw(st.lists(rational, min_size=count, max_size=count)))
    chain = build_chain(ChainSpec.default(m_max, couplings=tuple(values)))
    assert verify_semilattice(chain).passed


def test_even_norm_squared_identity():
    chain = build_chain(ChainSpec.default(20))
    for entry in norm_profile(chain):
        if entry.index % 2 == 0:
            k = entry.index // 2
            assert abs(entry.norm**2 - 1 - k * k) <= 1e-8


def pairwise_min_rule(mats):
    """The per-pair oracle of the min-rule table: for every ordered pair,
    whether e_i @ e_j equals e_min(i, j), and their deviation."""
    n = len(mats)
    ok = np.array([[(mats[i] @ mats[j]).equals(mats[min(i, j)]) for j in range(n)] for i in range(n)])
    dev = np.array([[(mats[i] @ mats[j]).max_abs_diff(mats[min(i, j)]) for j in range(n)] for i in range(n)])
    return ok, dev


@given(
    st.integers(1, 8),
    st.data(),
    st.one_of(st.none(), st.fractions(min_value=-2, max_value=2, max_denominator=2**70).filter(lambda x: x != 0)),
)
@settings(max_examples=40, deadline=None)
def test_min_rule_table_matches_pairwise_products(m_max, data, eps):
    # verdicts and deviations equal the per-pair loop bit for bit, on the
    # chain and on a copy with one entry of one element moved by eps
    values = sorted(data.draw(st.lists(rational, min_size=m_max // 2, max_size=m_max // 2)))
    chain = build_chain(ChainSpec.default(m_max, couplings=tuple(values)))
    mats = list(chain.idempotents)
    if eps is not None:
        dim = chain.truncation_dim
        k = data.draw(st.integers(0, m_max - 1))
        i, j = data.draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)))
        unit = Matrix.exact([[int((r, c) == (i, j)) for c in range(dim)] for r in range(dim)])
        mats[k] = mats[k] + unit * eps
    expected_ok, expected_dev = pairwise_min_rule(mats)
    index = np.arange(m_max)
    for entries in (matrices._BLOCK_ENTRIES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrices, "_BLOCK_ENTRIES", entries)
            ok, dev = matrices.product_table(matrices.stack(mats), np.minimum.outer(index, index))
            report = verify_semilattice(Chain(chain.spec, matrices.stack(mats)))
        assert np.array_equal(ok, expected_ok) and np.array_equal(dev, expected_dev)
        assert report.passed == ok.all() and report.idempotent == ok.diagonal().all()
        assert report.max_abs_deviation == dev.max()
    assert ok.all() or eps is not None


def test_chain_checks_make_no_exact_products(monkeypatch):
    # construction, the min-rule table and the chain stage are batched
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append((a, b)) or matmul(a, b))
    report = verify_semilattice(build_chain(ChainSpec.default(10)))
    assert report.passed and report.idempotent
    assert run_experiment(ExperimentConfig(subcommand="chain", m_max=10)).overall
    assert calls == []


def test_build_chain_names_a_non_idempotent_element(monkeypatch):
    fill = chains._fill_family

    def third_doubled(spec):
        family = fill(spec)
        twice = np.where(np.arange(spec.m_max) == 2, 2, 1)[:, None, None]
        return family.apply(lambda x: x * twice, family.bound and 2 * family.bound)

    monkeypatch.setattr(chains, "_fill_family", third_doubled)
    with pytest.raises(CertificationError, match="e_3 failed"):
        build_chain(ChainSpec.default(6))
    with pytest.raises(CertificationError, match="e_3 failed"):
        build_chain(ChainSpec.default(6, couplings=(1.5, 2.5, 3.5)))


def test_min_rule_table_stays_on_int64(monkeypatch):
    # a family checked against itself compares A B with d T, not d A B with
    # d^2 T, so a denominator near 2**24 keeps every kernel on int64
    chain = build_chain(ChainSpec.default(10, couplings=[Fraction(k, 2**24 - 3) for k in range(1, 6)]))
    seen = []
    choose = matrices.kernel_dtype
    monkeypatch.setattr(matrices, "kernel_dtype", lambda *bounds: seen.append(choose(*bounds)) or seen[-1])
    assert verify_semilattice(chain).passed
    assert seen and all(dtype is np.int64 for dtype in seen)


# a partial permutation with entries 1, -1, i and -i: a block whose norm is 1
UNIMODULAR = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@st.composite
def chain_specs(draw):
    """Specs with gaps of widths 1 to 3 and nondecreasing couplings: integer,
    rational, float (read at its binary value), near 2**300 or 2**400 scalars, multiples of 2**-62
    mixed with small-denominator rationals (their common denominator passes
    int64), or rational multiples of unimodular partial permutations,
    complex blocks of every gap shape."""
    m_max = draw(st.integers(1, 7))
    count = m_max // 2
    gaps = draw(st.lists(st.integers(1, 3), min_size=chains.required_ladder_length(m_max),
                         max_size=chains.required_ladder_length(m_max)))
    dims = tuple(np.cumsum(gaps).tolist())
    kind = draw(st.sampled_from(["integer", "rational", "2**-62", "float", "2**300", "2**400", "operator"]))
    rational = st.fractions(min_value=0, max_value=100, max_denominator=20)
    values = {
        "integer": st.integers(0, 100),
        "rational": rational,
        "2**-62": st.one_of(st.integers(1, 2**10).map(lambda k: Fraction(k, 2**62)), rational),
        "float": st.floats(min_value=0, max_value=1e6),
        "2**300": st.integers(0, 2**60).map(lambda k: 2**300 + k),
        "2**400": st.integers(0, 2**60).map(lambda k: 2**400 + k),
        "operator": st.fractions(min_value=0, max_value=100, max_denominator=20),
    }[kind]
    scales = sorted(draw(st.lists(values, min_size=count, max_size=count)))
    if kind != "operator":
        return ChainSpec(m_max=m_max, dims=dims, couplings=tuple(scales))
    couplings = []
    for k, scale in enumerate(scales, start=1):
        rows, cols = dims[2 * k - 1] - dims[2 * k - 2], dims[2 * k] - dims[2 * k - 1]
        image = draw(st.permutations(range(cols)))
        units = draw(st.lists(st.sampled_from(UNIMODULAR), min_size=rows, max_size=rows))
        block = [[(0, 0)] * cols for _ in range(rows)]
        for i in range(min(rows, cols)):
            block[i][image[i]] = (scale * units[i][0], scale * units[i][1])
        couplings.append(Matrix.exact(block))
    return ChainSpec(m_max=m_max, dims=dims, couplings=tuple(couplings))


def assert_layout_matches_oracle(chain):
    # each index of the two stacks equals the per-Matrix oracle, and their
    # float readouts are bit-identical to the oracle's
    gens = pairwise.chain_generators(chain)
    assert len(chain.family.re) == len(chain.generators.re) == len(chain.idempotents)
    for j, (e, g) in enumerate(zip(chain.idempotents, gens)):
        assert Matrix.from_stack(chain.family.take(j)).equals(e)
        assert Matrix.from_stack(chain.generators.take(j)).equals(g)
    assert all(map(Matrix.equals, orthogonal_generators(chain), gens))
    assert matrices.float_stack(chain.family).tobytes() == matrices.float_stack(pairwise.chain_family(chain)).tobytes()
    assert matrices.float_stack(chain.generators).tobytes() == np.array([g.to_float() for g in gens]).tobytes()


@given(chain_specs())
@settings(max_examples=60, deadline=None)
def test_filled_chain_equals_the_per_matrix_construction(spec):
    # the family filled from the spec holds the numerators and denominator
    # that stacking the per-Matrix idempotents gives, and each idempotent
    # view equals its per-Matrix construction
    chain = build_chain(spec)
    want = [pairwise.build_idempotent(spec, n) for n in range(1, spec.m_max + 1)]
    family, stacked = chain.family, matrices.stack(want)
    assert family.den == stacked.den
    assert np.array_equal(family.re, stacked.re)
    assert (family.im is None) == (stacked.im is None) and (family.im is None or np.array_equal(family.im, stacked.im))
    assert matrices.float_stack(family).tobytes() == matrices.float_stack(stacked).tobytes()
    assert len(chain.idempotents) == len(want) and all(map(Matrix.equals, chain.idempotents, want))


def test_chain_rejects_a_family_with_too_few_matrices():
    chain = build_chain(ChainSpec.default(6))
    with pytest.raises(ValueError, match=r"shape \(6, 7, 7\), got \(3, 7, 7\)"):
        Chain(chain.spec, chain.family.take(slice(3)))


def test_chain_rejects_a_family_of_the_wrong_side():
    chain, small = build_chain(ChainSpec.default(6)), build_chain(ChainSpec.default(6, dims=range(1, 14, 2)))
    with pytest.raises(ValueError, match=r"shape \(6, 13, 13\), got \(6, 7, 7\)"):
        Chain(small.spec, chain.family)


@given(chain_specs(), st.data())
@settings(max_examples=40, deadline=None)
def test_chain_stacks_match_per_matrix_oracle(spec, data):
    chain = build_chain(spec)
    assert_layout_matches_oracle(chain)
    assert verify_semilattice(chain).passed
    # a chain made by hand from a family with one element doubled: its
    # idempotents and generators are read from that family, so the min-rule
    # table sees the change
    k = data.draw(st.integers(0, spec.m_max - 1))
    mats = list(chain.idempotents)
    mats[k] = mats[k] * 2
    changed = Chain(spec, matrices.stack(mats))
    assert_layout_matches_oracle(changed)
    report = verify_semilattice(changed)
    assert not report.passed and not report.idempotent
