"""Tensor elements, diagonals, multiplier bounds, and expectation maps."""
import math
import operator
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opalg import (
    DEFAULT_TOL,
    ChainSpec,
    DimensionError,
    FiniteDiagonal,
    Matrix,
    TensorElem,
    bimodule_commutator,
    build_chain,
    certify_expectation,
    certify_mbad,
    expectation_from_diagonal,
    expectation_norm_demo,
    full_matrix_diagonal,
    op_norm,
    orthogonal_generators,
    pi_map,
    skew_idempotent_diagonal,
    tensor_norm_bounds,
    tensor_norm_upper,
    unitize_diagonal,
)
from opalg import diagonals
from opalg.diagonals import (
    _bounds,
    _commutator_bounds,
    _legs,
    _nonzero,
    _reduce,
    _regrouped_uppers,
    _rest_norms,
)
from opalg.matrices import Stack, float_stack, singular_values, stack_concat

import pairwise
from pairwise import PairTensor


def batch(t):
    """The legs of t as a batch of one element."""
    return t._left.take(None), t._right.take(None)


def reduced_form(t):
    """The reduced form of t, as a tensor element."""
    left, right = _reduce(*batch(t))
    return TensorElem(left.take(0), right.take(0), t.dim)


def sequence(deltas):
    """A diagonal sequence as the batched increments certify_mbad takes."""
    return pairwise.batched(pairwise.increments(deltas))


def stacked(p):
    """A PairTensor, built term by term, as a TensorElem."""
    return TensorElem.of(p.terms, p.dim)


def same_element(a, b):
    """Value equality of tensor elements: a - b reduces to the empty form."""
    diff = PairTensor(pairwise.terms(a), a.dim) - PairTensor(pairwise.terms(b), b.dim)
    return not pairwise.terms(reduced_form(stacked(diff)))


@pytest.fixture(scope="module")
def chain6():
    return build_chain(ChainSpec.default(6))


def test_delta_term_counts(chain6):
    assert len(pairwise.terms(pairwise.build_delta(chain6, 1))) == 1
    assert len(pairwise.terms(pairwise.build_delta(chain6, 2))) == 2
    d3 = pairwise.build_delta(chain6, 3)
    assert len(pairwise.terms(d3)) == 3
    assert d3.flatten().shape == (chain6.truncation_dim**2,) * 2


def test_delta_structure(chain6):
    d2 = pairwise.build_delta(chain6, 2)
    e1, e2 = chain6.e(1), chain6.e(2)
    assert pairwise.terms(d2)[0][0].equals(e1) and pairwise.terms(d2)[0][1].equals(e1)
    diff = e2 - e1
    assert pairwise.terms(d2)[1][0].equals(diff) and pairwise.terms(d2)[1][1].equals(diff)


def test_delta_index_range(chain6):
    with pytest.raises(ValueError):
        pairwise.build_delta(chain6, 0)
    with pytest.raises(ValueError):
        pairwise.build_delta(chain6, 7)


def test_pi_of_single_term():
    u = Matrix.exact([[1, 2], [3, 4]])
    v = Matrix.exact([[0, 1], [1, 0]])
    assert pi_map(TensorElem.of([(u, v)])).equals(u @ v)


def test_pi_of_delta_is_chain_element(chain6):
    for n in range(1, 7):
        assert pi_map(pairwise.build_delta(chain6, n)).equals(chain6.e(n))


def test_pi_of_delta2_hand_expansion():
    # e1^2 + (e2 - e1)^2 = e2 via e1 e2 = e2 e1 = e1
    chain = build_chain(ChainSpec(m_max=2, dims=(1, 2, 3), couplings=(1,)))
    e1, e2 = chain.e(1), chain.e(2)
    by_hand = e1 @ e1 + (e2 - e1) @ (e2 - e1)
    assert by_hand.equals(e2)
    assert pi_map(pairwise.build_delta(chain, 2)).equals(by_hand)


def test_commutator_vanishes_on_the_algebra(chain6):
    for m in range(1, 7):
        for n in range(1, 7):
            comm = bimodule_commutator(chain6.e(m), pairwise.build_delta(chain6, n))
            assert len(pairwise.terms(comm)) == 2 * n
            assert pairwise.is_zero(comm.flatten())


def test_commutator_detects_outside_elements(chain6):
    dim = chain6.truncation_dim
    shift = Matrix.exact([[1 if j == i + 1 else 0 for j in range(dim)] for i in range(dim)])
    comm = bimodule_commutator(shift, pairwise.build_delta(chain6, 2))
    assert not pairwise.is_zero(comm.flatten())


def test_actor_is_the_matrix_own_stack():
    # an actor is not stacked again, and a wrong shape is refused as a leg is
    e = skew_idempotent_diagonal(3)
    a = Matrix.exact([[1, 2], [3, 4]])
    assert e.diag._actor(a) is a._s
    for wrong in (Matrix.identity(3), Matrix.exact([[1, 2]])):
        with pytest.raises(DimensionError, match="legs and actors must be 2x2"):
            bimodule_commutator(wrong, e.diag)
        with pytest.raises(DimensionError, match="legs and actors must be 2x2"):
            expectation_from_diagonal(e, wrong)


def test_zero_actor_gives_zero_commutator(chain6):
    comm = bimodule_commutator(Matrix.zeros(chain6.truncation_dim), pairwise.build_delta(chain6, 3))
    assert pairwise.is_zero(comm.flatten())


def test_flatten_additive_and_kron():
    u = Matrix.exact([[0, 1], [1, 0]])
    v = Matrix.exact([[2, 0], [0, 3]])
    t = TensorElem.of([(u, v)])
    assert t.flatten().equals(u.kron(v))
    one = Matrix.identity(2)
    assert TensorElem.of([(one, one)]).flatten().equals(Matrix.identity(4))
    d = TensorElem.of([(u, v), (one, one)])
    assert d.flatten().equals(u.kron(v) + one.kron(one))
    assert pairwise.is_zero(TensorElem.of([(u, v), (-u, v)]).flatten())


def seeded_rational(rng, dim):
    """A seeded complex rational dim x dim matrix: numerators in [-32, 32]
    over 16."""
    return Matrix.from_stack(Stack.read(*(rng.integers(-32, 33, (dim, dim)).astype(object) for _ in range(2)), 16))


def test_flatten_intertwines_module_actions():
    rng = np.random.default_rng(5)
    one = Matrix.identity(3)
    for _ in range(10):
        a, u, v = (seeded_rational(rng, 3) for _ in range(3))
        t = TensorElem.of([(u, v)])
        assert TensorElem.of([(a @ u, v)]).flatten().equals(a.kron(one) @ t.flatten())
        assert TensorElem.of([(u, v @ a)]).flatten().equals(t.flatten() @ one.kron(a))


def test_norm_bounds_single_term_tight():
    u = Matrix.exact([[1, 2], [0, 0]])
    v = Matrix.exact([[3, 0], [0, 1]])
    lower, upper = tensor_norm_bounds(TensorElem.of([(u, v)]))
    expected = op_norm(u) * op_norm(v)
    assert lower == pytest.approx(expected, abs=1e-9)
    assert upper == pytest.approx(expected, abs=1e-9)


def test_norm_bounds_zero_tensor():
    z = TensorElem.of((), 3)
    assert tensor_norm_bounds(z) == (0.0, 0.0)
    one = Matrix.identity(2)
    assert tensor_norm_bounds(TensorElem.of([(one, one), (-one, one)])) == (0.0, 0.0)


def test_norm_bounds_bracket_orthogonal_projections():
    p1, p2 = Matrix.diag([1, 0]), Matrix.diag([0, 1])
    delta = TensorElem.of([(p1, p1), (p2, p2)])
    lower, upper = tensor_norm_bounds(delta)
    assert lower == pytest.approx(1.0, abs=1e-9)
    assert upper == pytest.approx(2.0, abs=1e-9)


def test_norm_upper_does_not_split_independent_legs():
    # eliminating r against w would give legs w and r - w, with ||r - w|| = 5
    w = Matrix.diag([1, 2])
    r = Matrix.diag([1, -3])
    t = TensorElem.of([(w, r), (-r, w)])
    assert tensor_norm_upper(t) == pytest.approx(2 * 2.0 * 3.0, abs=1e-9)
    # proportional right legs still merge: p1 (x) p1 + p2 (x) p1 = 1 (x) p1
    p1, p2 = Matrix.diag([1, 0]), Matrix.diag([0, 1])
    assert tensor_norm_upper(TensorElem.of([(p1, p1), (p2, p1)])) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_norm_bounds_ordered(n_terms, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    terms = [(seeded_rational(rng, 3), seeded_rational(rng, 3)) for _ in range(n_terms)]
    lower, upper = tensor_norm_bounds(TensorElem.of(terms))
    assert lower <= upper + 1e-9


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def tensor_elements(draw):
    """Small rational (possibly complex) elements, some with left legs
    combined from two shared legs, and differences of elements with
    themselves."""
    dim = draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 4))
    entry = st.one_of(st.just(0), small_rationals, st.tuples(small_rationals, small_rationals))
    row = st.lists(entry, min_size=dim, max_size=dim)

    def leg():
        return Matrix.exact(draw(st.lists(row, min_size=dim, max_size=dim)))
    pool = (leg(), leg())

    def left():
        if draw(st.booleans()):
            return pool[0] * draw(small_rationals) + pool[1] * draw(small_rationals)
        return leg()
    t = PairTensor([(left(), leg()) for _ in range(n_terms)], dim)
    return stacked(t - t if draw(st.booleans()) else t)


@given(tensor_elements())
@settings(max_examples=150, deadline=None)
def test_reduced_form_matches_kron_oracle(t):
    reduced = pairwise.terms(reduced_form(t))
    picture = TensorElem.of(reduced, dim=t.dim).flatten()
    oracle = t.flatten()
    assert picture.equals(oracle)
    assert (not reduced) == pairwise.is_zero(oracle)
    lower, upper = tensor_norm_bounds(t)
    assert lower <= upper * (1 + 1e-12) + 1e-15


@given(tensor_elements(), st.data())
@settings(max_examples=100, deadline=None)
def test_stacked_algebra_matches_pairwise_oracle(t, data):
    # pi, flatten, the commutator and the unitization on the stacked legs
    # against the same operations made term by term on Matrix pairs
    pairs = pairwise.PairTensor(pairwise.terms(t), t.dim)
    entry = st.one_of(st.just(0), small_rationals, st.tuples(small_rationals, small_rationals))
    row = st.lists(entry, min_size=t.dim, max_size=t.dim)
    a = Matrix.exact(data.draw(st.lists(row, min_size=t.dim, max_size=t.dim)))
    one = Matrix.identity(t.dim)
    unitized = pairs.scale(2) - pairs.left(a) + PairTensor([(one - a, one - a)], t.dim)
    cases = [
        (pi_map(t), pairs.pi()), (t.flatten(), pairs.flatten()),
        (bimodule_commutator(a, t).flatten(), pairwise.commutator(a, pairs).flatten()),
        (unitize_diagonal(t, a, one - a)[0].flatten(), unitized.flatten()),
    ]
    for got, want in cases:
        assert got.equals(want)
    # term by term, the commutator is (a u, v) then (u, -(v a))
    comm = pairwise.terms(bimodule_commutator(a, t))
    assert len(comm) == 2 * len(pairwise.terms(t))
    assert all(x.equals(y) for p, q in zip(comm, pairwise.commutator(a, pairs).terms) for x, y in zip(p, q))


@st.composite
def scaled_exact_elements(draw):
    """Exact elements whose legs are small rational (possibly complex)
    matrices, some scaled by 2**900 or 2**-900, some combinations of two
    shared legs, and differences of an element with itself."""
    dim = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), small_rationals, st.tuples(small_rationals, small_rationals))

    def leg():
        m = Matrix.exact(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
        return m * draw(st.sampled_from([1, 1, 2**900, Fraction(1, 2**900)]))
    pool = (leg(), leg())
    terms = [(pool[0] * draw(small_rationals) + pool[1] if draw(st.booleans()) else leg(), leg())
             for _ in range(draw(st.integers(0, 4)))]
    t = PairTensor(terms, dim)
    return stacked(t - t if draw(st.booleans()) else t)


@given(scaled_exact_elements())
@settings(max_examples=100, deadline=None)
def test_norm_bounds_match_pairwise_oracle_bit_for_bit(t):
    # the stacked reduction keeps the legs the pairwise one keeps, so every
    # norm bound on exact input is the same float, even past float range
    try:
        upper = pairwise.upper(pairwise.reduce(pairwise.terms(t)))
    except OverflowError:
        # a norm product past float range stops the reference; the bound is inf
        assert tensor_norm_upper(t) == math.inf
        return
    assert tensor_norm_upper(t) == upper
    assert tensor_norm_bounds(t) == pairwise.bounds(pairwise.terms(t))


@st.composite
def exact_matrices(draw, dim):
    entry = st.one_of(st.just(0), small_rationals, st.tuples(small_rationals, small_rationals))
    return Matrix.exact(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_unitized_rewrite_gap_identity(data):
    # certify_mbad reads the unitized commutator [a, M] off the regrouped
    # R = 2[a,D] - p.[a,D] + w (x) rest - rest (x) w; the oracle forms
    # R - [a, M] in full, and it must equal [a,p].D + rest (x) [a,p]
    dim = data.draw(st.integers(2, 4))
    one = Matrix.identity(dim)
    legs = exact_matrices(dim)
    terms = [(data.draw(legs), data.draw(legs)) for _ in range(data.draw(st.integers(1, 3)))]
    delta = TensorElem.of(terms, dim=dim)
    p = pi_map(delta) if data.draw(st.booleans()) else data.draw(legs)
    a_alg = data.draw(legs)
    a = a_alg + one * data.draw(st.tuples(small_rationals, small_rationals))
    rest = one - p
    w = a_alg @ rest
    m = TensorElem.of([(u * 2, v) for u, v in terms] + [(-(p @ u), v) for u, v in terms] + [(rest, rest)], dim=dim)
    d_comm = PairTensor(pairwise.terms(bimodule_commutator(a, delta)), dim)
    regrouped = d_comm.scale(2) - d_comm.left(p) + PairTensor([(w, rest), (-rest, w)], dim)
    gap = regrouped - PairTensor(pairwise.terms(bimodule_commutator(a, m)), dim)
    ap = a @ p - p @ a
    expected = PairTensor(terms, dim).left(ap) + PairTensor([(rest, ap)], dim)
    assert pairwise.terms(reduced_form(stacked(gap - expected))) == ()


def unitized_from_raw_commutator(deltas, chain, a, a_alg, rec, report, tol=DEFAULT_TOL):
    """(unitized_upper, unitized_ok) of one sample element, with
    R = 2[a,D] - p.[a,D] + w (x) rest - rest (x) w built on the raw terms of
    bimodule_commutator(a, D) and every bound as certify_mbad states it."""
    dim = chain.truncation_dim
    one = Matrix.identity(dim)
    k = report.projection_sup
    uppers, refined_ok = [], True
    for d, p in zip(deltas, report.images):
        comm = bimodule_commutator(a, d)
        rest = one - p
        w = a_alg - a_alg @ p
        pairs = PairTensor(pairwise.terms(comm), dim)
        up = tensor_norm_upper(stacked(pairs.scale(2) - pairs.left(p) + PairTensor([(w, rest), (-rest, w)], dim)))
        uppers.append(up)
        refined = (2.0 + k) * tensor_norm_upper(comm) + 2.0 * (1.0 + k) * (0.0 if pairwise.is_zero(w) else op_norm(w))
        refined_ok = refined_ok and up <= refined + max(tol, 1e-9 * max(1.0, refined))
    rewrite_ok = all((a @ p).equals(p @ a) for p in report.images)
    n = (0.0 if pairwise.is_zero(a_alg) else op_norm(a_alg)) + abs(rec.identity_coeff)
    ok = not rec.in_span or (
        refined_ok and rewrite_ok and max(uppers) <= report.unitized_constant * n + max(tol, 1e-9 * (1.0 + n))
    )
    return max(uppers), ok


def test_certify_mbad_unitized_matches_raw_commutator_reference(chain6):
    # certify_mbad builds R on the reduced commutator, which is empty
    # whenever a commutes with D; R built on the raw commutator terms has
    # the same value, and must give the same bound and verdict
    dim = chain6.truncation_dim
    one = Matrix.identity(dim)
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 7)]
    # commuting and non-commuting elements, one with float coefficients read
    # at their binary value, each as its part without the identity and its
    # identity coefficient
    parts = [(e, 0) for e in chain6.idempotents]
    parts += [(chain6.e(1) + unit01(dim), 0), (chain6.e(2) + unit01(dim) * Fraction(1, 3), 0), (chain6.e(3), 2)]
    parts += [(chain6.e(5) * 0.3, 0.5)]
    sample = [a_alg + one * c for a_alg, c in parts]
    report = certify_mbad(sequence(deltas), chain6, sample)
    assert [r.in_span for r in report.records] == [True] * 6 + [False, False, True, True]
    for a, (a_alg, _), rec in zip(sample, parts, report.records, strict=True):
        assert (rec.unitized_upper, rec.unitized_ok) == unitized_from_raw_commutator(
            deltas, chain6, a, a_alg, rec, report
        )


def test_certify_mbad_unitized_needs_commuting_images():
    # the middle "diagonal" E_01 (x) 1 + e_1 (x) e_1 has the image E_01 + e_1,
    # which e_1 and e_2 do not commute with
    chain = build_chain(ChainSpec.default(4))
    dim = chain.truncation_dim
    one = Matrix.identity(dim)
    odd = TensorElem.of([(unit01(dim), one), (chain.e(1), chain.e(1))], dim=dim)
    deltas = [pairwise.build_delta(chain, 1), odd, pairwise.build_delta(chain, 3)]
    sample = [chain.e(1), chain.e(2), chain.e(4), one * Fraction(3, 2) + chain.e(3)]
    report = certify_mbad(sequence(deltas), chain, sample)
    assert [r.unitized_ok for r in report.records] == [False, False, True, True]
    assert not report.verdict


def test_unitize_smallest_chain():
    chain = build_chain(ChainSpec.default(1))
    one = Matrix.identity(chain.truncation_dim)
    delta = pairwise.build_delta(chain, 1)
    p = pi_map(delta)
    m, image = unitize_diagonal(delta, p, one - p)
    assert pi_map(m).equals(one) and image.equals(one)
    e1 = chain.e(1)
    expected = TensorElem.of([(e1, e1), (one - e1, one - e1)])
    assert m.flatten().equals(expected.flatten())


def test_unitize_all_defaults(chain6):
    one = Matrix.identity(chain6.truncation_dim)
    for n in range(1, 7):
        d = pairwise.build_delta(chain6, n)
        p = pi_map(d)
        m, image = unitize_diagonal(d, p, one - p)
        assert pi_map(m).equals(one) and image.equals(one)


def test_unitize_reads_the_rest_it_is_given(chain6):
    # rest = 1 - p gives M = 2D - p.D + (1 - p) (x) (1 - p), the element the
    # unitization formed from the identity; a wrong rest moves its image
    one = Matrix.identity(chain6.truncation_dim)
    for n in range(1, 7):
        d = pairwise.build_delta(chain6, n)
        p, pairs = pi_map(d), PairTensor(pairwise.terms(d), d.dim)
        want = pairs.scale(2) - pairs.left(p) + PairTensor([(one - p, one - p)], d.dim)
        assert unitize_diagonal(d, p, one - p)[0].flatten().equals(want.flatten())
        m, image = unitize_diagonal(d, p, p)
        assert image.equals(pi_map(m)) and image.equals(p * 2) and not image.equals(one)


def test_unitize_collapses_on_identity_diagonal():
    one = Matrix.identity(3)
    delta = TensorElem.of([(one, one)])
    m, _ = unitize_diagonal(delta, one, one - one)
    assert m.flatten().equals(delta.flatten())


def test_unitize_rejects_wrong_unit(chain6):
    one = Matrix.identity(chain6.truncation_dim)
    d = pairwise.build_delta(chain6, 2)
    # the image is returned for the caller's check, not re-checked inside
    m, image = unitize_diagonal(d, chain6.e(1), one - chain6.e(1))
    assert image.equals(pi_map(m)) and not image.equals(one)


def test_certify_mbad_default_sample(chain6):
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 7)]
    sample = [chain6.e(n) for n in range(1, 6)]
    report = certify_mbad(sequence(deltas), chain6, sample)
    assert report.verdict
    assert report.multiplier_constant == 0.0
    assert report.projection_sup == pytest.approx(math.sqrt(10), abs=1e-9)
    for rec in report.records:
        assert rec.in_span
        assert rec.commutator_upper == 0.0
        assert rec.commutator_lower == 0.0
        assert rec.identity_ok and rec.commutator_ok and rec.unitized_ok


def test_certify_mbad_zero_sample(chain6):
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 4)]
    report = certify_mbad(sequence(deltas), chain6, [Matrix.zeros(chain6.truncation_dim)])
    assert report.verdict
    assert report.records[0].commutator_upper == 0.0
    assert report.records[0].element_constant == 0.0


def test_certify_mbad_flags_outside_elements(chain6):
    dim = chain6.truncation_dim
    shift = Matrix.exact([[1 if j == i + 1 else 0 for j in range(dim)] for i in range(dim)])
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 4)]
    report = certify_mbad(sequence(deltas), chain6, [shift, chain6.e(1)])
    by_label = {r.label: r for r in report.records}
    assert not by_label["a0"].in_span
    assert by_label["a1"].in_span
    assert report.verdict


def test_certify_mbad_handles_identity_component(chain6):
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 7)]
    ident = Matrix.identity(chain6.truncation_dim)
    elem = ident * Fraction(2) + chain6.e(3) * Fraction(1, 2)
    report = certify_mbad(sequence(deltas), chain6, [elem])
    rec = report.records[0]
    assert rec.in_span
    assert abs(rec.identity_coeff - 2.0) <= 1e-9
    assert rec.commutator_upper == 0.0
    assert rec.unitized_ok
    # an identity coefficient below float range is still one: the test is exact
    for corner in (Fraction(1, 2**1100), (0, Fraction(-1, 2**1100))):
        rec = certify_mbad(sequence(deltas[:2]), chain6, [ident * corner]).records[0]
        assert rec.identity_coeff == 0 and rec.identity_ok


def test_certify_mbad_unitized_bound_tracks_tail(chain6):
    # an element above the diagonal index leaves a nonzero unitized commutator
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 3)]
    report = certify_mbad(sequence(deltas), chain6, [chain6.e(5)])
    rec = report.records[0]
    assert rec.commutator_upper == 0.0
    assert rec.unitized_upper > 0.0
    assert rec.unitized_ok


def test_certify_mbad_truncated_sequence(chain6):
    # elements above the last diagonal leave w (x) (1-u) - (1-u) (x) w;
    # its upper bound must stay within the multiplier estimate
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 4)]
    report = certify_mbad(sequence(deltas), chain6, list(chain6.idempotents))
    assert report.verdict
    assert all(rec.unitized_ok for rec in report.records)


def test_expectation_on_full_matrix_algebra():
    d = full_matrix_diagonal(2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = seeded_rational(rng, 2)
        assert expectation_from_diagonal(d, x).equals(Matrix.identity(2) * x.entry(0, 0))


def test_expectation_skew_demo_exact():
    for t in (1, 10, 100):
        demo = expectation_norm_demo(t)
        assert demo.matches_exactly
        assert demo.expected.equals(demo.skew)
        assert demo.skew_norm == pytest.approx(math.sqrt(1 + t * t), abs=1e-8)
        assert demo.expectation_norm == demo.skew_norm


def test_expectation_fixes_identity(chain6):
    t = Fraction(3, 2)
    d = skew_idempotent_diagonal(t)
    one = Matrix.identity(2)
    assert expectation_from_diagonal(d, one).equals(one)


def test_certify_expectation_properties():
    d = skew_idempotent_diagonal(Fraction(5))
    one = Matrix.identity(2)
    e = d.algebra_basis[1]
    xs = [Matrix.exact([[1, 2], [3, 4]]), Matrix.diag([1, 0])]
    commutant = [one, e, one * Fraction(2, 3) + e * Fraction(1, 5)]
    report = certify_expectation(d, xs, commutant)
    assert report.passed
    assert report.commutes_with_algebra_dev == 0.0
    assert report.fixes_commutant_dev == 0.0
    assert report.bimodule_dev == 0.0
    # E(u) = I misses u by 2**-1100, which rounds to 0.0 but fails exactly
    off = Matrix.diag([1, 1 + Fraction(1, 2**1100)])
    report = certify_expectation(full_matrix_diagonal(2), [one], [off])
    assert report.fixes_commutant_dev == 0.0
    assert not report.passed


def test_finite_diagonal_validates_invariants():
    one = Matrix.identity(2)
    e = Matrix.exact([[1, 1], [0, 0]])
    bad = TensorElem.of([(e, e)])
    with pytest.raises(ValueError, match="identity on basis element 0"):
        FiniteDiagonal(diag=bad, algebra_basis=(one, e))
    # the first failing basis element is named, the identity checked first
    p, e01 = Matrix.diag([1, 0]), Matrix.exact([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="identity on basis element 1"):
        FiniteDiagonal(diag=TensorElem.of([(p, p)]), algebra_basis=(p, one, e01))
    with pytest.raises(ValueError, match="identity on basis element 0"):
        FiniteDiagonal(diag=TensorElem.of([(p, p)]), algebra_basis=(e01, p))
    with pytest.raises(ValueError, match="commute with basis element 1"):
        FiniteDiagonal(diag=TensorElem.of([(one, one)]), algebra_basis=(one, e01, e01))
    # pi(q (x) q) = q**2 misses the identity by 2**-1099, which rounds to 0.0
    # and fails exactly
    q = Matrix.diag([1, 1 - Fraction(1, 2**1100)])
    with pytest.raises(ValueError, match="identity on basis element 0"):
        FiniteDiagonal(diag=TensorElem.of([(q, q)]), algebra_basis=(one,))
    # p (x) p + (1-p) (x) (1-p) + eps e01 (x) e01 has image 1, and
    # kron(p, 1) F - F kron(1, p) = eps kron(e01, e01), which no eps hides
    legs = [(p, p), (one - p, one - p)]
    FiniteDiagonal(diag=TensorElem.of(legs), algebra_basis=(one, p))
    for eps in (1e-12, 1e-6):
        with pytest.raises(ValueError, match="commute with basis element 1"):
            FiniteDiagonal(diag=TensorElem.of(legs + [(e01 * eps, e01)]), algebra_basis=(one, p))


def test_expectation_dimension_mismatch():
    d = full_matrix_diagonal(2)
    with pytest.raises(Exception):
        expectation_from_diagonal(d, Matrix.identity(3))


def test_mbad_report_serializes(chain6):
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 4)]
    report = certify_mbad(sequence(deltas), chain6, [chain6.e(1), chain6.e(2)])
    assert report.multiplier_constant == 0.0 and report.verdict is True
    assert [r.label for r in report.records] == ["a0", "a1"]
    for r in report.records:
        assert r.identity_ok and r.commutator_ok and r.unitized_ok


def unit01(dim):
    return Matrix.exact([[int((i, j) == (0, 1)) for j in range(dim)] for i in range(dim)])


def test_certify_mbad_exact_commutator_below_float_range(chain6):
    # a = e_1 + 2**-1100 E_01 reads as e_1 in floats, so its commutator
    # bounds round to 0.0; the exact span test flags it as outside the
    # algebra, which does not fail the verdict, and its exact commutators
    # do not vanish
    a = chain6.e(1) + unit01(chain6.truncation_dim) * Fraction(1, 2**1100)
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 7)]
    report = certify_mbad(sequence(deltas), chain6, [a])
    rec = report.records[0]
    assert not rec.in_span and rec.commutator_upper == 0.0
    assert report.verdict
    dim = chain6.truncation_dim
    assert not all(_bounds(*batch(bimodule_commutator(a, d)))[2][0] for d in deltas)


def test_certify_mbad_top_index_is_exact(chain6):
    # the e_3 coordinate 2**-40 is below any float threshold, but it is
    # there: the top index is 3, past the last diagonal
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 3)]
    report = certify_mbad(sequence(deltas), chain6, [chain6.e(2) + chain6.e(3) * Fraction(1, 2**40)])
    rec = report.records[0]
    assert rec.in_span and rec.top_index == 3
    assert rec.identity_ok and report.verdict


def test_certify_mbad_reads_coordinates_over_the_chain(chain6):
    ident = Matrix.identity(chain6.truncation_dim)
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 4)]
    elem = chain6.e(2) * Fraction(-3, 7) + chain6.e(5) + ident * (Fraction(1, 3), 2)
    report = certify_mbad(sequence(deltas), chain6, [elem, chain6.e(4) - chain6.e(4)])
    rec, zero = report.records
    assert rec.in_span and rec.top_index == 5 and rec.identity_coeff == complex(1 / 3, 2)
    assert zero.in_span and zero.top_index == 0 and zero.identity_coeff == 0
    # the report carries the images of the diagonals and of the unitized
    # diagonals, which are those of unitize_diagonal
    assert all(p.equals(chain6.e(n)) for n, p in enumerate(report.images, start=1))
    unitized = [unitize_diagonal(d, p, ident - p) for d, p in zip(deltas, report.images, strict=True)]
    assert all(pi_map(m).equals(ident) and image.equals(ident) for m, image in unitized)
    assert all(image.equals(ident) for image in report.unitized_images)


def test_tensor_value_equality_is_representation_free():
    p1, p2 = Matrix.diag([1, 0]), Matrix.diag([0, 1])
    one = Matrix.identity(2)
    a = TensorElem.of([(p1, p1), (p2, p1)])
    b = TensorElem.of([(one, p1)])
    assert same_element(a, b)
    assert a != b
    assert not same_element(a, TensorElem.of([(one, p2)]))


def test_certify_mbad_float_chain_within_tolerance():
    # a chain of float couplings is the exact chain of their binary values,
    # so its commutators vanish exactly and C is 0 with no tolerance
    chain = build_chain(ChainSpec(m_max=4, dims=(1, 2, 3, 4, 5), couplings=(1.5, 2.5)))
    deltas = [pairwise.build_delta(chain, n) for n in range(1, 5)]
    report = certify_mbad(sequence(deltas), chain, [chain.e(2), chain.e(3)], tol=0.0)
    assert report.verdict
    assert report.multiplier_constant == 0.0
    for rec in report.records:
        assert rec.in_span
        assert rec.commutator_upper == 0.0


@given(st.integers(2, 6), st.data())
@settings(max_examples=15, deadline=None)
def test_diagonal_identities_on_random_rational_chains(m_max, data):
    from opalg import ChainSpec as CS

    count = m_max // 2
    rationals = st.fractions(min_value=0, max_value=50, max_denominator=12)
    couplings = tuple(sorted(data.draw(st.lists(rationals, min_size=count, max_size=count))))
    chain = build_chain(CS.default(m_max, couplings=couplings))
    for n in range(1, m_max + 1):
        delta = pairwise.build_delta(chain, n)
        assert pi_map(delta).equals(chain.e(n))
        for m in range(1, m_max + 1):
            assert pairwise.is_zero(bimodule_commutator(chain.e(m), delta).flatten())


def test_certify_mbad_mixed_scale_exact_element(chain6):
    # i 2**-1100 1 + e_5: dividing a leg by its content leaves entries near
    # 2**1100, past float range; pivots and leg norms must not go through
    # a float conversion of them
    dim = chain6.truncation_dim
    x = Matrix.identity(dim) * (0, Fraction(1, 2**1100)) + chain6.e(5)
    report = certify_mbad(sequence([pairwise.build_delta(chain6, n) for n in (1, 2)]), chain6, [x])
    rec = report.records[0]
    assert rec.in_span and rec.commutator_upper == 0.0
    assert math.isfinite(rec.unitized_upper) and rec.unitized_ok
    assert tensor_norm_bounds(TensorElem.of([(x, x)], dim=dim)) == pytest.approx((1.0, 1.0), rel=1e-12)
    wide = chain6.e(5) * 2**900 + Matrix.identity(dim) * Fraction(1, 2**1100)
    assert tensor_norm_upper(TensorElem.of([(wide, chain6.e(1))], dim=dim)) == pytest.approx(2.0**900, rel=1e-12)


@st.composite
def diagonal_sequences(draw):
    """(chain, deltas, sample): a random exact rational chain, either its
    telescoping diagonals, random exact tensor elements (which share no
    prefix, or share one by extension), or the telescoping diagonals
    extended by random terms, and samples that mostly do not commute with
    them (for the last, that commute with the first diagonals)."""
    m_max = draw(st.integers(1, 4))
    rationals = st.fractions(min_value=0, max_value=20, max_denominator=6)
    couplings = tuple(sorted(draw(st.lists(rationals, min_size=m_max // 2, max_size=m_max // 2))))
    chain = build_chain(ChainSpec.default(m_max, couplings=couplings))
    dim = chain.truncation_dim
    # small integer legs, some scaled to complex or non-integer entries
    legs = st.builds(
        lambda flat, z: Matrix.exact(np.array(flat, dtype=object).reshape(dim, dim).tolist()) * z,
        st.lists(st.integers(-2, 2), min_size=dim * dim, max_size=dim * dim),
        st.sampled_from([1, Fraction(1, 3), (1, 1), (0, Fraction(-1, 2))]),
    )
    kind = draw(st.sampled_from(["telescoping", "unrelated", "extended", "stops"]))
    deltas, terms = [], []
    if kind in ("telescoping", "stops"):
        deltas = [pairwise.build_delta(chain, n) for n in range(1, m_max + 1)]
        terms = list(pairwise.terms(deltas[-1]))
    for _ in range(draw(st.integers(1, 3)) if kind != "telescoping" else 0):
        new = [(draw(legs), draw(legs)) for _ in range(draw(st.integers(1, 2)))]
        # an extended sequence rebuilds the earlier terms as new matrices
        terms = [(u + u - u, v) for u, v in terms] + new if kind != "unrelated" else new
        deltas.append(TensorElem.of(terms, dim=dim))
    # chain elements commute with the telescoping diagonals, so past them
    # a sequence that goes on with random terms stops commuting midway
    first = chain.e(draw(st.integers(1, m_max))) if kind == "stops" else draw(legs)
    sample = [first, chain.e(draw(st.integers(1, m_max)))]
    return chain, deltas, sample


@given(diagonal_sequences())
@settings(max_examples=40, deadline=None)
def test_incremental_commutators_match_commutators_from_scratch(case):
    chain, deltas, sample = case
    dim = chain.truncation_dim
    increments = pairwise.increments(deltas)
    for n, d in enumerate(deltas):
        pairs = [pair for inc in increments[: n + 1] for pair in pairwise.terms(inc)]
        assert same_element(TensorElem.of(pairs, dim), d)
    # all samples at once, as certify_mbad batches them
    seq = pairwise.batched(increments)
    bounds = _commutator_bounds(_legs(sample, dim), seq._left, seq._right)
    for s, a in enumerate(sample):
        for d, (lower, upper, zero, (left, right)) in zip(deltas, bounds, strict=True):
            scratch = reduced_form(bimodule_commutator(a, d))
            reduced = TensorElem(left.take(s), right.take(s), dim)
            assert same_element(reduced, scratch)
            assert zero[s] == (not pairwise.terms(scratch)) == (not _nonzero(reduced._left).any())
            # the flattenings are one exact matrix, so the lower bounds agree
            assert lower[s] == (0.0 if zero[s] else op_norm(scratch.flatten()))
            assert lower[s] <= upper[s] * (1 + 1e-12)


def test_increments_of_telescoping_diagonals_are_single_terms(chain6):
    deltas = [pairwise.build_delta(chain6, n) for n in range(1, 7)]
    increments = pairwise.increments(deltas)
    assert [len(pairwise.terms(i)) for i in increments] == [1] * 6
    # a sequence that shares no prefix adds all its terms and drops all the previous ones
    shuffled = [deltas[2], TensorElem.of(pairwise.terms(deltas[3])[::-1], dim=deltas[3].dim)]
    assert [len(pairwise.terms(i)) for i in pairwise.increments(shuffled)] == [3, 7]


@given(diagonal_sequences())
@settings(max_examples=60, deadline=None)
def test_batched_commutator_bounds_match_one_reduction_per_diagonal(case):
    # the [a, I_n] of all increments go through one reduction until some
    # [a, D_n] is nonzero; the bounds are those of one reduction per
    # diagonal, bit for bit
    chain, deltas, sample = case
    dim = chain.truncation_dim
    samples = _legs(sample, dim)
    increments = pairwise.increments(deltas)
    assert_commutator_bounds_match(samples, increments)


def assert_commutator_bounds_match(samples, increments):
    # bit for bit against one reduction per diagonal on the unpadded increments
    seq = pairwise.batched(increments)
    got = _commutator_bounds(samples, seq._left, seq._right)
    want = pairwise.commutator_bounds(samples, increments)
    for g, w in zip(got, want, strict=True):
        for x, y in zip(g[:3], w[:3]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for s in range(len(samples.re)):
            reduced = (TensorElem(x[0].take(s), x[1].take(s), increments[0].dim) for x in (g[3], w[3]))
            assert same_element(next(reduced), next(reduced))


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("counts", [(2, 1, 3, 1), (1, 0, 2, 0), (0, 2, 1), (0, 0)])
def test_commutator_bounds_on_unequal_and_empty_increments(chain6, counts, scaled):
    # the batched element pads every increment to the widest one, and an
    # increment with no terms to one zero term; neither moves a bound, on
    # integer samples and on samples times 0.1, read at its binary value
    dim = chain6.truncation_dim
    legs = [chain6.e(k) + unit01(dim) * k for k in range(1, 7)] + [Matrix.identity(dim) * Fraction(1, 3)]
    increments, at = [], 0
    for count in counts:
        increments.append(TensorElem.of([(legs[(at + i) % 7], legs[(at + 2 * i + 3) % 7]) for i in range(count)], dim))
        at += count
    sample = [chain6.e(2), unit01(dim), chain6.e(4) + Matrix.identity(dim)]
    samples = _legs([a * 0.1 for a in sample] if scaled else sample, dim)
    seq = pairwise.batched(increments)
    assert [x.re.shape for x in (seq._left, seq._right)] == [(len(counts), max(1, *counts), dim, dim)] * 2
    assert_commutator_bounds_match(samples, increments)


def test_certify_mbad_reads_an_empty_prefix_as_zero(chain6):
    # an increment with no terms adds a diagonal equal to the one before:
    # a leading one has the zero image, whose unitized diagonal is 1 (x) 1
    dim = chain6.truncation_dim
    gens = [TensorElem.of([(g, g)], dim) for g in orthogonal_generators(chain6)]
    empty = TensorElem.of((), dim)
    got = certify_mbad(pairwise.batched([empty, gens[0], empty, *gens[1:]]), chain6, list(chain6.idempotents))
    want = certify_mbad(pairwise.batched(gens), chain6, list(chain6.idempotents))
    assert got.images[0].equals(Matrix.zeros(dim))
    assert all(map(Matrix.equals, got.images[1:2] + got.images[2:], want.images[:1] + want.images))
    assert all(image.equals(Matrix.identity(dim)) for image in got.unitized_images)
    assert got.verdict and want.verdict
    # no increment, or increments with no terms, is no sequence
    for shape in ((0, 1, dim, dim), (2, 0, dim, dim)):
        legs = Stack(np.zeros(shape, dtype=np.int64), None, 1, 0)
        with pytest.raises(ValueError, match="no diagonals supplied"):
            certify_mbad(TensorElem(legs, legs, dim), chain6, list(chain6.idempotents))


def integer_legs(dim, content_one=True):
    """Nonzero integer dim x dim matrices, divided by their content when
    ``content_one``."""
    def build(flat):
        m = np.array(flat, dtype=object).reshape(dim, dim)
        g = math.gcd(*flat) if content_one else 1
        return Matrix.exact((m // g).tolist())
    ints = st.lists(st.integers(-3, 3), min_size=dim * dim, max_size=dim * dim).filter(any)
    return st.builds(build, ints)


@given(st.integers(1, 4), st.sampled_from(["integer", "rational", "zero", "multiple"]), st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_regrouped_bound_matches_the_reduction(dim, kind, data):
    # with [a, D] empty, R = w (x) rest - rest (x) w; its bound is read in
    # closed form from ||w|| and ||rest||
    rest, w = data.draw(integer_legs(dim, kind != "rational")), data.draw(integer_legs(dim, kind != "rational"))
    if kind == "rational":
        rest, w = (x * data.draw(st.sampled_from([Fraction(1, 3), Fraction(5, 4), (1, 1), (0, Fraction(-2, 7))]))
                   for x in (rest, w))
    elif kind == "zero":
        w = Matrix.zeros(dim)
    elif kind == "multiple":
        w = rest * data.draw(st.sampled_from([1, -2, Fraction(3, 5), (1, -1)]))
    expected = tensor_norm_upper(TensorElem.of([(w, rest), (-rest, w)], dim=dim))
    empty, ws = _legs([], dim).take(None), _legs([w], dim).take(None)
    shrinks = singular_values(float_stack(ws).reshape(-1, dim, dim))[:, 0].reshape(1, 1)
    images, rests = _legs([Matrix.identity(dim) - rest], dim), _legs([rest], dim)
    got = _regrouped_uppers([(empty, empty)], ws, shrinks, images, rests, _rest_norms(rests))
    assert got.shape == (1, 1)
    if kind in ("zero", "multiple"):
        assert got[0, 0] == expected == 0.0
    elif kind == "integer":
        assert got[0, 0] == expected
    else:
        assert got[0, 0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_closed_form_reads_the_norm_of_minus_rest():
    # the stacked SVD rounds this rest and its negation apart in the last
    # bit; the reduction reads both, and so does the closed form
    rest = Matrix.exact([[0, 2, 0, 0], [1, 2, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    w = Matrix.exact([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    empty, ws = _legs([], 4).take(None), _legs([w], 4).take(None)
    images, rests = _legs([Matrix.identity(4) - rest], 4), _legs([rest], 4)
    got = _regrouped_uppers([(empty, empty)], ws, np.ones((1, 1)), images, rests, _rest_norms(rests))
    assert got[0, 0] == tensor_norm_upper(TensorElem.of([(w, rest), (-rest, w)], dim=4))


MBAD_CHAINS = [(10, None), (12, (Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), Fraction(7, 3), Fraction(5, 2), 3))]


@pytest.mark.parametrize("m_max, couplings", MBAD_CHAINS)
def test_certify_mbad_on_generator_increments_matches_the_diagonals(m_max, couplings):
    # the increments g_n (x) g_n, views of Chain.generators as the diagonal
    # stage passes them, give the report of the diagonals D_n whose
    # increments are found by comparing them term by term
    chain = build_chain(ChainSpec.default(m_max, couplings=couplings) if couplings else ChainSpec.default(m_max))
    one = Matrix.identity(chain.truncation_dim)
    sample = list(chain.idempotents) + [chain.e(3) + one * 2, chain.e(2) + unit01(chain.truncation_dim), one]
    gens = chain.generators.take(np.s_[:, None])
    got = certify_mbad(TensorElem(gens, gens, chain.truncation_dim), chain, sample)
    want = certify_mbad(sequence([pairwise.build_delta(chain, n) for n in range(1, m_max + 1)]), chain, sample)
    # the records and constants bit for bit, the images as exact matrices
    assert replace(got, images=(), unitized_images=()) == replace(want, images=(), unitized_images=())
    for mine, theirs in ((got.images, want.images), (got.unitized_images, want.unitized_images)):
        assert len(mine) == len(theirs) == m_max and all(map(Matrix.equals, mine, theirs))


@pytest.mark.parametrize("m_max, couplings", MBAD_CHAINS)
def test_certify_mbad_closed_form_matches_the_reduction(monkeypatch, m_max, couplings):
    # every record against certify_mbad with every unitized bound reduced:
    # bit for bit on the integer default chain, within 1e-12 on rational legs
    chain = build_chain(ChainSpec.default(m_max, couplings=couplings) if couplings else ChainSpec.default(m_max))
    deltas = [pairwise.build_delta(chain, n) for n in range(1, m_max + 1)]
    one = Matrix.identity(chain.truncation_dim)
    sample = list(chain.idempotents) + [chain.e(3) + one * 2, chain.e(2) + unit01(chain.truncation_dim), one]
    got = certify_mbad(sequence(deltas), chain, sample).records
    monkeypatch.setattr(diagonals, "_regrouped_uppers", lambda comms, w, shrinks, images, rests, norms: np.array(
        pairwise.regrouped_uppers(comms, w, images, rests)))
    want = certify_mbad(sequence(deltas), chain, sample).records
    if couplings is None:
        assert got == want
    for g, w in zip(got, want, strict=True):
        assert replace(g, unitized_upper=0.0) == replace(w, unitized_upper=0.0)
        assert g.unitized_upper == pytest.approx(w.unitized_upper, rel=1e-12, abs=0.0)


def grouping_corpus():
    """(chain, sample) pairs: MBAD_CHAINS, and a k/3 chain whose samples put a
    leg past 2**256, an identity part of 2**-1100, a complex identity part
    and an element with float coefficients beside its idempotents."""
    for m_max, couplings in MBAD_CHAINS:
        chain = build_chain(ChainSpec.default(m_max, couplings=couplings) if couplings else ChainSpec.default(m_max))
        one = Matrix.identity(chain.truncation_dim)
        yield chain, list(chain.idempotents) + [chain.e(3) + one * 2, chain.e(2) + unit01(chain.truncation_dim), one]
    chain = build_chain(ChainSpec.default(10, couplings=tuple(Fraction(k, 3) for k in range(1, 6))))
    dim = chain.truncation_dim
    one = Matrix.identity(dim)
    yield chain, list(chain.idempotents) + [
        chain.e(3) + unit01(dim) * 2**300, chain.e(4) + one * Fraction(1, 2**1100),
        chain.e(5) + one * (Fraction(1, 3), 2), chain.e(6) * 0.3 + one * 0.5]


@pytest.mark.parametrize("chain, sample", list(grouping_corpus()))
def test_certify_mbad_is_the_same_in_any_grouping(monkeypatch, chain, sample):
    # the report is the same for groups of one sample and one group of all,
    # and each record is that of its sample passed alone: which samples
    # share a group moves no digit
    gens = chain.generators.take(np.s_[:, None])
    increments = TensorElem(gens, gens, chain.truncation_dim)
    reports, calls, bounds = [], [], diagonals._commutator_bounds
    monkeypatch.setattr(diagonals, "_commutator_bounds", lambda a, *rest: calls.append(rest) or bounds(a, *rest))
    for entries in (1, 2**40):
        monkeypatch.setattr(diagonals, "_GROUP_ENTRIES", entries)
        calls.clear()
        reports.append(certify_mbad(increments, chain, sample))
        # every group gets the increments' own two (increment, term, n, n)
        # leg stacks, not a copy
        legs = (increments._left, increments._right)
        assert len(calls) == (len(sample) if entries == 1 else 1)
        assert [x.re.shape for x in legs] == [(chain.m_max, 1, chain.truncation_dim, chain.truncation_dim)] * 2
        assert all(len(c) == 2 and all(map(operator.is_, c, legs)) for c in calls)
    assert reports[0] == reports[1]
    for i, (rec, a) in enumerate(zip(reports[0].records, sample, strict=True)):
        assert rec == replace(certify_mbad(increments, chain, [a]).records[0], label=f"a{i}")
    # the chain's idempotents given as their stack, as the diagonal stage
    # gives Chain.family, have the records they have as matrices
    assert certify_mbad(increments, chain, chain.family).records == reports[0].records[:chain.m_max]
