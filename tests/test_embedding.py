"""Rank-one family, block embedding, subset sweep, and trace norms."""
import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opalg import (
    Matrix,
    RankOneFamily,
    SubsetFamily,
    TraceWeights,
    best_subset_sum,
    brute_force_best_subset,
    certify_E_family,
    certify_embedding_bounds,
    l1_trace_norm,
    make_trace,
    op_norm,
    phi,
    phi_sup_norm,
    singular_values,
    unit_circle_sweep_ratios,
)
from opalg import embedding, matrices
import pairwise
from opalg.matrices import Stack, bound_holds, kernel_dtype, read_scalar

INV_PI = 1.0 / math.pi


def test_E_smallest_case_outer_product():
    # order (alpha, omega, 1): x = (1,1,1), y = (-1,1,1)
    e1 = pairwise.E(RankOneFamily.build(1), 1)
    assert e1.equals(Matrix.exact([[-1, -1, -1], [1, 1, 1], [1, 1, 1]]))


def test_omega_diagonal_entry_is_one():
    fam = RankOneFamily.build(8)
    for n in (1, 3, 7):
        assert pairwise.E(fam, n).entry(1, 1) == (1, 0)


def test_E_is_idempotent_and_rank_one():
    e = pairwise.E(RankOneFamily.build(6), 4)
    assert (e @ e).equals(e)
    assert float(singular_values(e.to_float()[None]).sum()) == pytest.approx(3.0, abs=1e-9)


def test_E_norm_is_three():
    fam = RankOneFamily.build(6)
    assert op_norm(pairwise.E(fam, 5)) == pytest.approx(3.0, abs=1e-9)


def test_cross_products_vanish_exactly():
    fam = RankOneFamily.build(4)
    assert pairwise.is_zero(pairwise.E(fam, 1) @ pairwise.E(fam, 2))
    assert pairwise.is_zero(pairwise.E(fam, 3) @ pairwise.E(fam, 1))


def test_pair_norm_lower_witness():
    fam = RankOneFamily.build(2)
    combo = pairwise.E(fam, 1) + pairwise.E(fam, 2)
    assert op_norm(combo) >= 2.0 - 1e-9


def test_certify_E_family_passes():
    fam = RankOneFamily.build(5)
    report = certify_E_family(fam, trials=25, seed=1)
    assert report.passed
    assert report.max_norm_error <= 1e-9
    assert report.witness_exact and report.witness_dominated


def test_index_out_of_range():
    fam = RankOneFamily.build(4)
    for n in (0, 5):
        with pytest.raises(IndexError):
            pairwise.E(fam, n)


def dense_certify_E_family(fam, trials, seed, tol):
    """Reference certificate on the dense E_n: every pairwise product,
    every entry read for the range test, and each witness summed term by
    term."""
    mats = [pairwise.E(fam, n) for n in range(1, fam.n_max + 1)]
    dim = fam.ambient_dim
    max_norm_error = max(abs(op_norm(m) - 3.0) for m in mats)
    norms_ok = max_norm_error <= tol
    idem = all((m @ m).equals(m) for m in mats)
    cross_zero = all(
        pairwise.is_zero(mats[i] @ mats[j]) for i in range(len(mats)) for j in range(len(mats)) if i != j
    )
    contained = True
    for n, m in enumerate(mats, start=1):
        allowed = {0, 1, n + 1}
        for i in range(dim):
            for j in range(dim):
                re, im = m.entry(i, j)
                if (re != 0 or im != 0) and (i not in allowed or j not in allowed):
                    contained = False
    rng = np.random.default_rng(seed)
    witness_exact = True
    witness_dominated = True
    for _ in range(trials):
        re = rng.uniform(-1.0, 1.0, fam.n_max)
        im = rng.uniform(-1.0, 1.0, fam.n_max)
        coeffs = [(Fraction(float(p)), Fraction(float(q))) for p, q in zip(re, im)]
        acc = sum((m * c for m, c in zip(mats, coeffs)), Matrix.zeros(dim))
        total = (sum(c[0] for c in coeffs), sum(c[1] for c in coeffs))
        if acc.entry(1, 1) != total:
            witness_exact = False
        magnitude = abs(complex(float(total[0]), float(total[1])))
        if magnitude > op_norm(acc) + tol:
            witness_dominated = False
    passed = norms_ok and idem and cross_zero and contained and witness_exact and witness_dominated
    return embedding.EFamilyReport(
        fam.n_max, max_norm_error, norms_ok, idem, cross_zero, contained, trials, witness_exact, witness_dominated,
        passed,
    )


def _broken(n_max, edit):
    fam = RankOneFamily.build(n_max)
    x, y = fam.x.copy(), fam.y.copy()
    edit(x, y)
    return RankOneFamily(n_max, x, y)


def _flip_y(x, y):
    y[:, -1] *= -1


def _stray_x(x, y):
    x[2, -1] = 1  # x_n also on coordinate 1


def _stray_y(x, y):
    y[0, 0] = 2  # y_1 off its alpha coefficient, still inside the allowed span


def _outside_y(x, y):
    y[-1, 0] = 5  # y_1 on coordinate n_max


@pytest.mark.parametrize("n_max, edit", [
    (n, edit) for n in range(1, 13) for edit in (None, _flip_y, _stray_x, _stray_y, _outside_y)
    if n > 1 or edit in (None, _flip_y, _stray_y)  # the others need a second sequence index
])
def test_certify_E_family_matches_dense_oracle(n_max, edit):
    fam = RankOneFamily.build(n_max) if edit is None else _broken(n_max, edit)
    got = certify_E_family(fam, trials=4, seed=n_max)
    want = dense_certify_E_family(fam, trials=4, seed=n_max, tol=1e-9)
    # the norm deviation is read off the factors here and off an SVD there,
    # so only it is compared within rounding; it is 0.0 for the built family
    assert got.max_norm_error == pytest.approx(want.max_norm_error, abs=1e-12)
    assert got.passed == (edit is None)
    assert got == embedding.EFamilyReport(**{**vars(want), "max_norm_error": got.max_norm_error})


def test_certify_E_family_witness_is_two_products(monkeypatch):
    calls = []
    product = matrices._complex_product

    def counted(op, *args):
        calls.append(op)
        return product(op, *args)

    monkeypatch.setattr(matrices, "_complex_product", counted)
    assert certify_E_family(RankOneFamily.build(20), trials=7).passed
    # Y c for the coefficients c of every trial at once, then (Y c) X*
    assert calls == [np.multiply, np.matmul]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("trials", [1, 100])
def test_certify_E_family_matches_trial_by_trial_oracle(seed, trials):
    fam = RankOneFamily.build(10)
    assert certify_E_family(fam, trials=trials, seed=seed) == pairwise.e_family(fam, trials=trials, seed=seed)


@pytest.mark.parametrize("chunk", [1, 3 * 9**2, 2**30])
def test_certify_E_family_is_the_same_in_any_chunking(monkeypatch, chunk):
    # one trial per chunk, three per chunk with a short last one, and all at once
    fam = RankOneFamily.build(7)
    monkeypatch.setattr(embedding, "_CHUNK_ENTRIES", chunk)
    assert certify_E_family(fam, trials=8, seed=5) == pairwise.e_family(fam, trials=8, seed=5)


def test_dyadic_numerators_are_exact_and_least():
    values = np.array([0.0, -1.0, 1.0, 0.5, -0.75, 2.0**-60, 3 * 2.0**-40, np.nextafter(1.0, 0.0)])
    nums, scale = embedding._dyadic(values)
    assert scale == 2**60 and nums.dtype == np.int64
    assert [Fraction(int(k), scale) for k in nums] == [Fraction(v) for v in values]
    assert embedding._dyadic(np.array([0.5, -0.25]))[1] == 4 and embedding._dyadic(np.zeros(3))[1] == 1
    # past int64 the numerators are Python integers
    nums, scale = embedding._dyadic(np.array([2.0**-70, -0.5]))
    assert scale == 2**70 and nums.dtype == object and list(nums) == [1, -(2**69)]


def test_subset_family_canonical_order():
    fam = SubsetFamily.enumerate(3, f_cap=100, s_max=3)
    assert fam.subsets == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def test_subset_family_caps():
    fam = SubsetFamily.enumerate(10, f_cap=512, s_max=8)
    assert len(fam) == 512
    assert max(len(f) for f in fam) <= 8
    # sweep-optimal subsets may exceed the enumeration cardinality cap
    aug = fam.augmented([tuple(range(1, 10))])
    assert aug.subsets[-1] == tuple(range(1, 10))
    assert len(aug) == 513
    assert len(fam.augmented([(1,)])) == 512


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_augmented_family_equals_the_joined_family(data):
    fam = data.draw(families())
    n = fam.n_max
    subset = st.lists(st.integers(1, n), min_size=1, max_size=n)
    extras = data.draw(st.lists(st.one_of(subset, st.sampled_from(fam.subsets)), max_size=4))
    new = tuple(f for f in dict.fromkeys(tuple(sorted(set(f))) for f in extras) if f not in fam.subsets)
    aug = fam.augmented(extras)
    if not new:
        assert aug is fam
        return
    joined = SubsetFamily(n_max=n, s_max=fam.s_max, f_cap=fam.f_cap, subsets=fam.subsets + new)
    assert aug == joined and aug.subsets[: len(fam)] == fam.subsets
    assert [(pos, idx.tolist()) for pos, idx in aug._by_size] == [(pos, idx.tolist()) for pos, idx in joined._by_size]


def test_augmented_family_rejects_bad_extras():
    fam = SubsetFamily.enumerate(4, f_cap=6, s_max=2)
    assert fam.augmented([]) is fam and fam.augmented([(2, 1, 1), (3,)]) is fam
    for extras in ([()], [(1, 2), []], [(0, 1)], [(5,)], [(1, 2, 3), (2, 5)]):
        with pytest.raises(ValueError):
            fam.augmented(extras)


def test_phi_block_outside_support_is_zero():
    fam = SubsetFamily(n_max=2, s_max=2, f_cap=4, subsets=((2,),))
    emb = phi([1, 0], fam)
    assert pairwise.is_zero(block_of(emb, (2,)))
    assert block_of(emb, (2,)).shape == (3, 3)


def test_phi_block_restricts_rank_one():
    fam = SubsetFamily(n_max=2, s_max=2, f_cap=4, subsets=((1, 2),))
    emb = phi([1, 0], fam)
    block = block_of(emb, (1, 2))
    assert block.shape == (4, 4)
    big = pairwise.E(RankOneFamily.build(2), 1)
    assert block.equals(pairwise.select(big, [0, 1, 2, 3], [0, 1, 2, 3]))
    for k in range(4):
        assert block.entry(3, k) == (0, 0)
        assert block.entry(k, 3) == (0, 0)


def test_phi_orthogonality_of_disjoint_indices():
    fam = SubsetFamily.enumerate(3, f_cap=10, s_max=2)
    e1 = phi([1, 0, 0], fam)
    e2 = phi([0, 1, 0], fam)
    for b1, b2 in zip(blocks_of(e1), blocks_of(e2)):
        assert pairwise.is_zero(b1 @ b2)


def test_phi_multiplicative_on_rational_inputs():
    fam = SubsetFamily.enumerate(4, f_cap=20, s_max=3)
    a = [(Fraction(1, 2), Fraction(1, 3)), 2, 0, (Fraction(-1, 5), 0)]
    b = [(Fraction(3, 7), 0), (0, 1), 1, (2, Fraction(1, 2))]
    prod = []
    for x, y in zip(a, b):
        xr, xi = x if isinstance(x, tuple) else (x, 0)
        yr, yi = y if isinstance(y, tuple) else (y, 0)
        prod.append((Fraction(xr) * yr - Fraction(xi) * yi, Fraction(xr) * yi + Fraction(xi) * yr))
    ea, eb, ep = phi(a, fam), phi(b, fam), phi(prod, fam)
    for ba, bb, bp in zip(blocks_of(ea), blocks_of(eb), blocks_of(ep)):
        assert (ba @ bb).equals(bp)


def test_phi_rejects_support_outside_range():
    fam = SubsetFamily.enumerate(2, f_cap=4, s_max=2)
    with pytest.raises(ValueError, match="support"):
        phi([1, 0, 5], fam)


def test_phi_sup_norm_single_index():
    fam = SubsetFamily.enumerate(4, f_cap=20, s_max=3)
    assert phi_sup_norm(phi([1, 0, 0, 0], fam)) == pytest.approx(3.0, abs=1e-9)
    assert phi_sup_norm(phi([0, 0, 0, 0], fam)) == 0.0


def test_omega_entry_of_blocks_is_subset_sum():
    fam = SubsetFamily.enumerate(5, f_cap=40, s_max=4)
    coeffs = [(Fraction(1, 3), Fraction(-1, 7)), (2, 0), (Fraction(5, 9), 1), (0, 0), (1, Fraction(1, 2))]
    emb = phi(coeffs, fam)
    for subset, block in zip(fam.subsets, blocks_of(emb)):
        expected_re = sum(Fraction(coeffs[j - 1][0]) for j in subset)
        expected_im = sum(Fraction(coeffs[j - 1][1]) for j in subset)
        assert block.entry(1, 1) == (expected_re, expected_im)


def test_phi_reads_coefficients_like_matrix_scalars():
    # a pair with float parts, a float and a complex number are all taken at
    # their binary value, so every block is exact
    fam = SubsetFamily.enumerate(3, f_cap=7, s_max=3)
    for a in ([(0.5, 0.25)], [0.5 + 0.25j], [(Fraction(1, 2), 0.25)]):
        for subset, block in zip(fam.subsets, blocks_of(phi(a, fam))):
            assert block.entry(1, 1) == ((Fraction(1, 2), Fraction(1, 4)) if 1 in subset else (0, 0))
    mixed = phi([0.5, 0.25j, (1, 2)], fam)
    for subset, block in zip(fam.subsets, blocks_of(mixed)):
        parts = ((Fraction(1, 2), 0), (0, Fraction(1, 4)), (1, 2))
        assert block.entry(1, 1) == tuple(sum(parts[j - 1][k] for j in subset) for k in (0, 1))
    # 0.1 is not 1/10, and the blocks say so
    tenth = blocks_of(phi([0.1], fam))[0]
    assert tenth.entry(1, 1) == (Fraction(0.1), 0) != (Fraction(1, 10), 0)


def test_best_subset_sum_all_positive():
    subset, value = best_subset_sum([1, 1, 1])
    assert subset == (1, 2, 3)
    assert value == pytest.approx(3.0, abs=1e-12)


def test_best_subset_sum_mixed_signs():
    _, value = best_subset_sum([1, -1])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_best_subset_sum_eighth_roots():
    a = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
    subset, value = best_subset_sum(a)
    assert len(subset) == 4
    assert value == pytest.approx(1.0 / math.sin(math.pi / 8), abs=1e-9)
    assert value / 8 > INV_PI


def test_best_subset_sum_empty_support():
    with pytest.raises(ValueError, match="support"):
        best_subset_sum([0, 0.0])


def test_unit_circle_ratios_decrease_to_inv_pi():
    ratios = [r for _, _, r in unit_circle_sweep_ratios([8, 16, 32, 64])]
    assert all(r > INV_PI for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(0.3266, abs=5e-4)


complex_entry = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=5, allow_nan=False, allow_infinity=False),
)


@given(st.lists(complex_entry, min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_sweep_matches_brute_force(a):
    support = [z for z in a if z != 0]
    if not support:
        a = a + [1.0]
    _, sweep = best_subset_sum(a, cross_check=False)
    _, brute = brute_force_best_subset(a)
    assert sweep == pytest.approx(brute, abs=1e-9 * (1 + brute))
    l1 = sum(abs(complex(z)) for z in a)
    assert sweep >= l1 * INV_PI * (1 - 1e-12)


def loop_best_subset_sum(a):
    """The half-plane sweep as one loop over the midpoints, each member sum
    a Python sum: the oracle for best_subset_sum without its cross-check."""
    support = embedding._support(a)
    two_pi = 2.0 * math.pi
    critical = set()
    for _, z in support:
        arg = math.atan2(z.imag, z.real)
        critical.add((arg + math.pi / 2.0) % two_pi)
        critical.add((arg - math.pi / 2.0) % two_pi)
    angles = sorted(critical)
    best_set, best_val = (), -1.0
    for lo, hi in zip(angles, angles[1:] + [angles[0] + two_pi]):
        theta = ((lo + hi) / 2.0) % two_pi
        c, s = math.cos(theta), math.sin(theta)
        members = [(j, z) for j, z in support if z.real * c + z.imag * s > 0.0]
        if not members:
            continue
        val = abs(sum(z for _, z in members))
        if val > best_val:
            best_val, best_set = val, tuple(j for j, _ in members)
    return best_set, best_val


# parts on a coarse grid, signed zeros included, so that member sums and
# midpoint values tie
grid_part = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25]), st.floats(-4, 4))
grid_entry = st.builds(complex, grid_part, grid_part)


@given(st.lists(st.one_of(grid_entry, complex_entry), min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
@example(a=[complex(-0.0, 1.0), complex(1.0, -0.0), -1.0, complex(-0.0, -1.0)])
@example(a=[1.0, -1.0, 1j, -1j, 1.0])
def test_sweep_matches_loop_oracle(a):
    # the same set and the bit-identical value, ties and signed zeros included
    if not any(z != 0 for z in a):
        a = a + [complex(-0.0, 1.0)]
    assert best_subset_sum(a, cross_check=False) == loop_best_subset_sum(a)


def test_sweep_matches_loop_oracle_past_one_block():
    # supports past 181 split the midpoints into several blocks; the first
    # maximum still wins across them
    rng = np.random.default_rng(5)
    for n in (182, 256, 300):
        roots = [cmath.exp(2j * math.pi * j / n) for j in range(n)]
        noisy = list(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        for a in (roots, noisy):
            assert best_subset_sum(a, cross_check=False) == loop_best_subset_sum(a)


def one_block_brute_force(a):
    """The brute force over every nonempty subset mask at once: each member
    sum one sequential cumsum in index order and its modulus np.hypot, as
    the sweep forms them."""
    support = embedding._support(a)
    n, z = len(support), np.array([v for _, v in support])
    masks = np.arange(1, 1 << n, dtype=np.int64)
    inside = (masks[:, None] >> np.arange(n)) & 1 == 1
    sums = np.cumsum(np.where(inside, z, 0), axis=1)[:, -1]
    values = np.hypot(sums.real, sums.imag)
    k = int(np.argmax(values))
    return tuple(support[i][0] for i in range(n) if (int(masks[k]) >> i) & 1), float(values[k])


def test_blocked_brute_force_matches_one_block():
    # past 2**12 masks the subsets are enumerated in blocks; the winner and
    # its value are those of one index-order sum per mask over all masks,
    # ties included
    rng = np.random.default_rng(3)
    for n in range(1, 17):
        roots = [cmath.exp(2j * math.pi * j / n) for j in range(n)]
        noisy = list(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        for a in (roots, noisy):
            assert brute_force_best_subset(a) == one_block_brute_force(a)


@given(st.lists(complex_entry, min_size=1, max_size=8), st.floats(0, 2 * math.pi), st.floats(0.1, 4))
@settings(max_examples=60, deadline=None)
@example(a=[2 + 5e-324j], angle=0.0, scalep=1.0)
def test_sweep_value_phase_invariant_and_homogeneous(a, angle, scalep):
    if all(z == 0 for z in a):
        a = a + [1.0]
    _, base = best_subset_sum(a, cross_check=False)
    rotated = [z * cmath.exp(1j * angle) for z in a]
    _, rotated_val = best_subset_sum(rotated, cross_check=False)
    assert rotated_val == pytest.approx(base, abs=1e-9 * (1 + base))
    scaled = [z * scalep for z in a]
    _, scaled_val = best_subset_sum(scaled, cross_check=False)
    assert scaled_val == pytest.approx(base * scalep, abs=1e-9 * (1 + base * scalep))


def weights(w):
    """Trace weights as Fractions."""
    return tuple(Fraction(n, w.den) for n in w.numerators)


def test_make_trace_uniform():
    fam = SubsetFamily.enumerate(3, f_cap=3, s_max=1)
    w = make_trace(fam, "uniform")
    assert weights(w) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_make_trace_geometric():
    fam = SubsetFamily(n_max=2, s_max=1, f_cap=2, subsets=((1,), (2,)))
    w = make_trace(fam, "geometric")
    assert weights(w) == pytest.approx((2 / 3, 1 / 3))


def test_geometric_weights_are_normalized_powers_of_two():
    # 2^(N-k) / (2^N - 1) is 2^-k / (1 - 2^-N), in lowest terms
    for count in (1, 2, 7, 513):
        fam = SubsetFamily(n_max=count, s_max=1, f_cap=count, subsets=tuple((j,) for j in range(1, count + 1)))
        total = 1 - Fraction(1, 2**count)
        for scheme in ("geometric", "uniform"):
            # int / int rounds each weight as float(Fraction) does
            w = make_trace(fam, scheme)
            assert w.floats == tuple(map(float, weights(w)))
        assert weights(make_trace(fam, "geometric")) == tuple(Fraction(1, 2**k) / total for k in range(1, count + 1))
    # 1/2 + 1/3, and 3/2 - 1/2, over the denominator 6 and 2
    with pytest.raises(ValueError, match="sum to 1"):
        TraceWeights((3, 2), 6, "geometric")
    with pytest.raises(ValueError, match="positive"):
        TraceWeights((3, -1), 2, "geometric")
    assert TraceWeights((1, 2, 3), 6, "uniform").floats == (1 / 6, 1 / 3, 1 / 2)


def test_trace_weights_normalized():
    fam = SubsetFamily.enumerate(8, f_cap=200, s_max=4)
    for scheme in ("geometric", "uniform"):
        assert sum(weights(make_trace(fam, scheme))) == pytest.approx(1.0, abs=1e-12)


def test_geometric_weights_past_float_underflow():
    # 2^-1100 is below the smallest subnormal; exact weights stay positive
    fam = SubsetFamily.enumerate(20, f_cap=1100, s_max=4)
    w = make_trace(fam, "geometric")
    assert len(weights(w)) == 1100 and min(weights(w)) > 0 and sum(weights(w)) == 1
    assert w.floats == tuple(map(float, weights(w))) and w.floats[-1] == 0.0
    a = list(np.random.default_rng(4).uniform(-1, 1, 20) + 0.5j)
    tn = l1_trace_norm(phi(a, fam), w)
    assert math.isfinite(tn) and 0 < tn <= 3 * max(abs(z) for z in a)


def test_l1_trace_norm_single_rank_one():
    fam = SubsetFamily(n_max=1, s_max=1, f_cap=1, subsets=((1,),))
    emb = phi([1], fam)
    w = make_trace(fam, "uniform")
    assert l1_trace_norm(emb, w) == pytest.approx(1.0, abs=1e-9)


def test_l1_trace_norm_zero_vector():
    fam = SubsetFamily.enumerate(3, f_cap=10, s_max=2)
    emb = phi([0, 0, 0], fam)
    assert l1_trace_norm(emb, make_trace(fam, "geometric")) == 0.0


def test_l1_trace_norm_family_mismatch():
    fam1 = SubsetFamily.enumerate(3, f_cap=10, s_max=2)
    fam2 = SubsetFamily.enumerate(3, f_cap=3, s_max=1)
    emb = phi([1, 0, 0], fam1)
    with pytest.raises(ValueError, match="family"):
        l1_trace_norm(emb, make_trace(fam2, "uniform"))


def test_trace_norm_bounded_by_sup_norm_and_inf_bound():
    fam = SubsetFamily.enumerate(6, f_cap=60, s_max=4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = list(rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))
        emb = phi(a, fam)
        sup = phi_sup_norm(emb)
        linf = max(abs(z) for z in a)
        for scheme in ("geometric", "uniform"):
            tn = l1_trace_norm(emb, make_trace(fam, scheme))
            assert tn <= 3 * linf + 1e-9
            assert tn <= sup + 1e-9


def test_certify_embedding_bounds_small():
    report = certify_embedding_bounds(n_max=6, f_cap=64, s_max=4, trials=25, seed=5)
    assert report.passed
    assert report.min_sup_ratio >= INV_PI
    assert report.max_sup_ratio <= 3.0 + 1e-9
    assert report.single_index_ratio == pytest.approx(3.0, abs=1e-9)
    assert report.mult_exact
    assert len(report.rows) == 25


def test_certify_embedding_rejects_bad_trials():
    with pytest.raises(ValueError):
        certify_embedding_bounds(trials=0)


def test_phi_accepts_trailing_zeros_beyond_range():
    fam = SubsetFamily.enumerate(2, f_cap=4, s_max=2)
    emb_float = phi([0.5, 0.25, 0.0, 0.0], fam)
    emb_exact = phi([Fraction(1, 2), Fraction(1, 4), 0, 0], fam)
    assert all(map(Matrix.equals, blocks_of(emb_float), blocks_of(emb_exact)))


def test_phi_pads_numerators_past_int64():
    # two coefficients of three, one with a numerator past int64: the missing
    # one is a Python zero, which sums with it without overflow
    fam = SubsetFamily.enumerate(3, f_cap=7, s_max=3)
    blocks = blocks_of(phi([Fraction(1, 2**126), 1], fam))
    assert blocks[-1].entry(1, 1) == (1 + Fraction(1, 2**126), 0)


def blocks_of(e):
    """One Matrix per subset of an embedded element, in family order and in
    lowest terms: the per-block view of its stacks."""
    out = [None] * len(e.family)
    for positions, s in e.stacks:
        for pos, r, i in zip(positions, s.re, [None] * len(s.re) if s.im is None else s.im, strict=True):
            out[pos] = Matrix.from_stack(Stack.read(r, i, s.den))
    return tuple(out)


def block_of(e, subset):
    return blocks_of(e)[e.family.subsets.index(tuple(sorted(set(subset))))]


def product_form_blocks(a, family):
    """Reference blocks Y_F diag(a_F) X_F^*: the columns of X and Y are the
    vectors x_n = e_alpha + e_omega + e_n and y_n = -e_alpha + e_omega + e_n,
    and _F keeps the rows (alpha, omega, F) and the columns F."""
    n_max = family.n_max
    # X is real, so X^* is its transpose
    xt = Matrix.exact([[1, 1] + [int(i == j) for j in range(n_max)] for i in range(n_max)])
    ys = Matrix.exact([[-1] * n_max, [1] * n_max] + [[int(i == j) for j in range(n_max)] for i in range(n_max)])
    vals = [read_scalar(v) for v in a][:n_max] + [0] * (n_max - len(a))
    blocks = []
    for subset in family.subsets:
        pos, cols = [0, 1] + [j + 1 for j in subset], [j - 1 for j in subset]
        d = Matrix.diag([vals[k] for k in cols])
        blocks.append(pairwise.select(ys, pos, cols) @ d @ pairwise.select(xt, cols, pos))
    return blocks


@st.composite
def families(draw, max_n=6):
    n_max = draw(st.integers(1, max_n))
    subsets = draw(st.lists(st.frozensets(st.integers(1, n_max), min_size=1), min_size=1, max_size=12, unique=True))
    return SubsetFamily(n_max=n_max, s_max=n_max, f_cap=len(subsets), subsets=tuple(tuple(f) for f in subsets))


small_fraction = st.fractions(min_value=-8, max_value=8, max_denominator=1000)
exact_coeff = st.one_of(st.integers(-50, 50), small_fraction, st.tuples(small_fraction, small_fraction))
float_coeff = st.one_of(
    st.floats(-1e3, 1e3),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@given(families(), st.data())
@settings(max_examples=80, deadline=None)
def test_exact_blocks_match_product_form(family, data):
    a = data.draw(st.lists(exact_coeff, max_size=family.n_max))
    emb = phi(a, family)
    for block, ref in zip(blocks_of(emb), product_form_blocks(a, family), strict=True):
        assert block.equals(ref)


@given(families(), st.data())
@settings(max_examples=80, deadline=None)
def test_float_blocks_match_product_form(family, data):
    # at least one float or complex coefficient, mixed with exact ones: each
    # is read at its binary value, and the blocks equal the product form
    a = data.draw(st.lists(st.one_of(exact_coeff, float_coeff), max_size=family.n_max - 1))
    a.insert(data.draw(st.integers(0, len(a))), data.draw(float_coeff))
    emb = phi(a, family)
    for block, ref in zip(blocks_of(emb), product_form_blocks(a, family), strict=True):
        assert block.equals(ref)


def test_stacked_spectra_match_per_block_norms():
    fam = SubsetFamily.enumerate(10, 512, 8).augmented([tuple(range(1, 11))])
    rng = np.random.default_rng(11)
    # every block of multiples of 3/16 shares a factor with the element's
    # denominator, 48, unless it holds the first coefficient
    multiples = [Fraction(1, 48)] + [
        (Fraction(3 * int(p), 16), Fraction(3 * int(q), 16)) for p, q in rng.integers(-10, 11, (9, 2))
    ]
    emb = phi(multiples, fam)
    reduced = [b for f, b in zip(fam.subsets, blocks_of(emb)) if 1 not in f and not pairwise.is_zero(b)]
    assert reduced and all(pairwise.content(b).denominator < 48 for b in reduced)
    for a in (
        list(rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)),
        [(Fraction(int(p), 16), Fraction(int(q), 16)) for p, q in rng.integers(-32, 33, (10, 2))],
        multiples,
        # numerators past 2**53, where converting before dividing rounds twice
        [(Fraction(int(p) * 2**40 + 1, 21), Fraction(int(q), 7)) for p, q in rng.integers(-2**20, 2**20, (10, 2))],
    ):
        emb = phi(a, fam)
        blocks = blocks_of(emb)
        # the spectra of S_k diag(a_F) S_k against full SVDs of the blocks,
        # within the rounding budget of norms of (k + 2) x (k + 2) matrices
        dim = fam.n_max + 2
        assert agree(phi_sup_norm(emb), max(op_norm(b) for b in blocks), dim)
        for positions, spectra in emb._spectra:
            for pos, spectrum in zip(positions, spectra, strict=True):
                full = singular_values(blocks[pos].to_float()[None])[0]
                assert spectrum[-2:].tolist() == [0.0, 0.0] and spectra_agree(spectrum, full, dim)
        for scheme in ("geometric", "uniform"):
            w = make_trace(fam, scheme)
            expected = 0.0
            for subset, weight, block in zip(fam.subsets, weights(w), blocks):
                expected += float(weight) / (len(subset) + 2) * float(singular_values(block.to_float()[None]).sum())
            assert agree(l1_trace_norm(emb, w), expected, dim)


def agree(x, y, dim):
    """Whether the floats x and y each stay within the other plus the
    matrices.bound_holds budget for norms of dim x dim matrices."""
    return bool(bound_holds(x, y, dim, 0.0) and bound_holds(y, x, dim, 0.0))


def test_norms_do_not_wrap_blocks(monkeypatch):
    fam = SubsetFamily.enumerate(5, f_cap=20, s_max=3)
    for a in ([0.5, 1j, 0, -2], [(Fraction(1, 3), 1), 2]):
        emb = phi(a, fam)
        with monkeypatch.context() as mp:
            mp.setattr(Matrix, "from_stack", lambda *args: pytest.fail("a norm wrapped a block"))
            phi_sup_norm(emb)
            l1_trace_norm(emb, make_trace(fam))
        assert len(blocks_of(emb)) == len(fam)


def test_product_dtype_bound():
    # int64 only when every bound is at most the largest int64
    assert kernel_dtype(2**63 - 1) is np.int64
    assert kernel_dtype(2**63) is object
    assert kernel_dtype(0, 2**63) is object
    assert kernel_dtype(2**53 + 1, 1) is np.int64
    # the bounds of A_k B_k and T_k over their least common denominator L,
    # 2 k max|a| max|b| (L / da db) and max|t| (L / dt), at their edges
    for bounds, dtype in [
        ((2 * 3 * (2**30) ** 2 * 1, 2**30), np.int64),
        ((2 * 4 * (2**30) ** 2 * 1, 2**30), object),
        ((2 * 3 * 1 * 1, 2**31 * (2**31 - 1)), np.int64),
        ((2 * 3, 2**31 * 2**32), object),
    ]:
        assert kernel_dtype(*bounds) is dtype


def pair_mul(x, y):
    """The product of two (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def numerators(coeffs):
    """Exact coefficients as a trial's (re, im, den): integer numerator
    arrays over their least common denominator."""
    pairs = [read_scalar(v) for v in coeffs]
    den = math.lcm(*(x.denominator for pair in pairs for x in pair))
    return (*(np.array([int(pair[k] * den) for pair in pairs], dtype=object) for k in (0, 1)), den)


def blockwise_product(ea, eb, ep):
    """The per-block oracle for pairwise.trial_is_product."""
    return all((ba @ bb).equals(bp) for ba, bb, bp in zip(blocks_of(ea), blocks_of(eb), blocks_of(ep), strict=True))


dyadic = st.builds(Fraction, st.integers(-64, 64), st.sampled_from([1, 2, 4, 8, 16]))
dyadic_pair = st.tuples(dyadic, dyadic)
# an odd numerator over a power of two stays at least 2**41 in lowest terms
wide_part = st.builds(
    lambda sign, k, den: Fraction(sign * (2 * k + 1), den),
    st.sampled_from([-1, 1]), st.integers(2**40, 2**90), st.sampled_from([1, 2, 4, 8, 16]),
)


@given(families(), st.data(), st.sampled_from(["true", "perturbed"]), st.booleans())
@settings(max_examples=120, deadline=None)
def test_batched_multiplicativity_matches_blockwise_products(family, data, kind, wide):
    n = family.n_max
    a = data.draw(st.lists(dyadic_pair, min_size=n, max_size=n))
    b = data.draw(st.lists(dyadic_pair, min_size=n, max_size=n))
    used = sorted(set().union(*family.subsets))
    if wide:
        # numerators of at least 2**41 in one block of a and of b fail the
        # int64 bound on their product
        j = data.draw(st.sampled_from(used)) - 1
        for x in (a, b):
            x[j] = (data.draw(wide_part), data.draw(st.one_of(st.just(Fraction(0)), wide_part)))
    p = [pair_mul(x, y) for x, y in zip(a, b)]
    if kind == "perturbed":
        j = data.draw(st.sampled_from(used)) - 1
        eps = Fraction(1, 2 ** data.draw(st.integers(0, 200)))
        p[j] = (p[j][0] + eps, p[j][1]) if data.draw(st.booleans()) else (p[j][0], p[j][1] - eps)
    ea, eb, ep = phi(a, family), phi(b, family), phi(p, family)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "kernel_dtype", lambda *args: seen.append(kernel_dtype(*args)) or seen[-1])
        verdict = pairwise.trial_is_product(family, [numerators(x) for x in (a, b, p)])
    assert verdict == pairwise.is_product(ea, eb, ep) == blockwise_product(ea, eb, ep) == (kind == "true")
    # dyadic products stay far inside int64; a fine perturbation may not
    if kind == "true":
        assert (object in seen) if wide else all(d is np.int64 for d in seen)


def random_rational_pairs(rng, n, denom=16):
    """Seeded rational coefficients as (re, im) Fraction pairs, numerators
    over ``denom`` drawn from [-2 denom, 2 denom]."""
    nums_re = rng.integers(-2 * denom, 2 * denom + 1, n)
    nums_im = rng.integers(-2 * denom, 2 * denom + 1, n)
    return [(Fraction(int(p), denom), Fraction(int(q), denom)) for p, q in zip(nums_re, nums_im)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_max, f_cap, s_max", [(10, 512, 8), (4, 15, 4), (12, 100, 3)])
def test_integer_trials_match_fraction_trials(seed, n_max, f_cap, s_max):
    # the oracle: Fraction coefficients drawn from the same rng calls, their
    # pointwise product in Fractions, phi, and the same product check; one
    # product coefficient moved by 1/256 fails both
    base = SubsetFamily.enumerate(n_max, f_cap=f_cap, s_max=s_max)
    ints, fracs = np.random.default_rng(seed), np.random.default_rng(seed)
    for trial in range(3):
        triples = pairwise.rational_trial(ints, n_max)
        a, b = random_rational_pairs(fracs, n_max), random_rational_pairs(fracs, n_max)
        p = [pair_mul(x, y) for x, y in zip(a, b)]
        if trial == 1:
            j = seed % n_max
            pr, pi, den = triples[2]
            triples = triples[:2] + ((pr + (np.arange(n_max) == j), pi, den),)
            p[j] = (p[j][0] + Fraction(1, 256), p[j][1])
        got = [embedding._embedded(base, Stack.read(*x)) for x in triples]
        want = [phi(x, base) for x in (a, b, p)]
        for g, w in zip(got, want):
            assert blocks_of(g) == blocks_of(w)
        verdict = pairwise.trial_is_product(base, triples)
        assert verdict == pairwise.is_product(*want) == (trial != 1)
        assert verdict == blockwise_product(*want)


@st.composite
def edge_coefficients(draw):
    """A family and exact coefficients whose shared-denominator numerators
    reach big n_max near 2**53, or whose denominator sits at 2**53, from
    either side."""
    family = draw(families(max_n=4))
    n = family.n_max
    if draw(st.booleans()):
        den = 1
        big = 2**53 // n + draw(st.integers(-2, 2))
    else:
        den = 2**53 + draw(st.sampled_from([-1, 0, 1]))
        big = draw(st.integers(1, 2**53 // n))
    nums = draw(st.lists(st.tuples(st.integers(-big, big), st.integers(-big, big)), min_size=n, max_size=n))
    # one numerator reaches big, and 1 / den keeps den as the shared denominator
    j = draw(st.integers(0, n - 1))
    nums[j] = (big * draw(st.sampled_from([1, -1])), 1)
    return family, [(Fraction(p, den), Fraction(q, den)) for p, q in nums]


@given(edge_coefficients())
@settings(max_examples=100, deadline=None)
def test_int64_stacks_convert_like_each_block(case):
    family, coeffs = case
    emb = phi(coeffs, family)
    den = emb.stacks[0][1].den
    nums = [x * den for pair in coeffs for x in pair]
    assert all(x.denominator == 1 for x in nums)
    big = max(abs(int(x)) for x in nums)
    int64 = big * family.n_max <= 2**63 - 1
    blocks = blocks_of(emb)
    for positions, s in emb.stacks:
        assert s.re.dtype == s.im.dtype == (np.int64 if int64 else object)
        floats = matrices.float_stack(s)
        for pos, arr in zip(positions, floats, strict=True):
            assert arr.tobytes() == blocks[pos].to_float().tobytes()
    # the int64 stacks also give the exact product check its answer
    assert pairwise.trial_is_product(family, [numerators(coeffs), numerators([1] * family.n_max), numerators(coeffs)])


@pytest.mark.parametrize("f_cap", [512, 12])
@pytest.mark.parametrize("trials", [1, 3, 100])
@pytest.mark.parametrize("seed", range(4))
def test_embedding_report_matches_item_by_item_oracle(seed, trials, f_cap):
    # every float of the report, against phi and per-block norms on each
    # item's augmented family; a cap of 12 leaves most sweep-optimal subsets
    # outside the base family, the default cap keeps some inside
    got = certify_embedding_bounds(trials=trials, seed=seed, f_cap=f_cap)
    assert_reports_agree(got, pairwise.embedding_bounds(trials=trials, seed=seed, f_cap=f_cap))


def assert_reports_agree(got, want):
    """Every bool, int and tuple length of two embedding reports equal, and
    every float within the :func:`agree` budget for blocks of side n_max + 2,
    the largest an appended subset makes: the report reads k x k spectra,
    the oracle full SVDs of the blocks."""
    def check(x, y, where):
        if isinstance(x, tuple):
            assert len(x) == len(y), where
            for i, (u, v) in enumerate(zip(x, y)):
                check(u, v, f"{where}[{i}]")
        elif isinstance(x, float):
            assert isinstance(y, float) and agree(x, y, got.n_max + 2), (where, x, y)
        else:
            assert type(x) is type(y) and x == y, (where, x, y)

    for f in dataclasses.fields(got):
        check(getattr(got, f.name), getattr(want, f.name), f.name)


def test_embedding_sweep_optimal_subsets_fall_inside_and_outside_the_base_family():
    # the oracle cases above cover both kinds of item
    rng = np.random.default_rng(0)
    subsets = [best_subset_sum(list(rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)))[0] for _ in range(20)]
    for f_cap, inside in ((512, {True, False}), (12, {False})):
        base = set(SubsetFamily.enumerate(10, f_cap=f_cap, s_max=8).subsets)
        assert {f in base for f in subsets} == inside


@pytest.mark.parametrize("chunk", [1, 2**40])
def test_embedding_report_is_the_same_in_any_chunking(monkeypatch, chunk):
    # one item per chunk, and every item in one chunk
    unchunked = certify_embedding_bounds(trials=7, seed=2, f_cap=100)
    monkeypatch.setattr(embedding, "_CHUNK_ENTRIES", chunk)
    got = certify_embedding_bounds(trials=7, seed=2, f_cap=100)
    # a block's spectrum does not depend on its chunk, so the digits do not either
    assert got == unchunked
    assert_reports_agree(got, pairwise.embedding_bounds(trials=7, seed=2, f_cap=100))


def off_in_one_basis_block(fill, size=3, member=1):
    """``_fill`` with one entry of the basis block of ``member`` among
    subsets of ``size`` moved by one: linear in the coefficients, so every
    block of that size moves by its coefficient of ``member``."""
    def filled(a):
        out = fill(a)
        if a.shape[-1] != size:
            return out
        out = out.copy()
        out[..., embedding._ALPHA, embedding._OMEGA] += a[..., member]
        return out
    return filled


def test_one_basis_entry_off_fails_multiplicativity(monkeypatch):
    # the certificate reads B_i B_j = delta_ij B_i off _fill(I_k); the norms
    # read coefficients, not blocks, so only the product check fails, and
    # the rational trials of the oracle, which fill their blocks, agree
    want = certify_embedding_bounds(trials=2, seed=1)
    monkeypatch.setattr(embedding, "_fill", off_in_one_basis_block(embedding._fill))
    got = certify_embedding_bounds(trials=2, seed=1)
    assert want.mult_exact and not got.mult_exact and not got.passed
    assert got == dataclasses.replace(want, mult_exact=False, passed=False)
    assert not pairwise.embedding_bounds(trials=2, seed=1).mult_exact


def test_basis_products_span_every_subset_size():
    # the default family has subsets of sizes 1 to 5: 1 + 4 + 9 + 16 + 25 products
    report = certify_embedding_bounds(trials=1)
    assert report.mult_sizes == (1, 2, 3, 4, 5) and report.mult_exact
    assert embedding._basis_is_multiplicative(range(1, 13))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_fill", off_in_one_basis_block(embedding._fill, size=8, member=7))
        assert embedding._basis_is_multiplicative(range(1, 8))
        assert not embedding._basis_is_multiplicative(range(1, 9))


@given(st.integers(1, 8), st.data(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_fill_is_linear_in_the_basis_blocks(k, data, wide):
    # premise of the multiplicativity certificate: _fill(a) = sum_i a_i B_i
    # with B = _fill(I_k), exactly, on int64 and on Python integers
    bound = 2**200 if wide else 2**59
    a = np.array(data.draw(st.lists(st.integers(-bound, bound), min_size=k, max_size=k)),
                 dtype=object if wide else np.int64)
    basis = embedding._fill(np.eye(k, dtype=np.int64)).astype(a.dtype)
    got, want = embedding._fill(a), sum(x * b for x, b in zip(a, basis))
    assert got.dtype == a.dtype and np.array_equal(got, want)


# parts at the float range's edges, where the stacked SVDs rescale
spectral_part = st.one_of(st.sampled_from([1e-320, -1e-320, 1e150, -1e150, 0.0]), st.floats(-1e3, 1e3))


@given(st.lists(st.builds(complex, spectral_part, spectral_part), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
@example(a=[1e-320, complex(1e150, 1e150), complex(0.0, -1e-320)])
def test_reduced_spectra_match_full_svd(a):
    # premise of the block spectra: the singular values of _fill(a) are those
    # of S_k diag(a) S_k and two zeros, within the bound_holds budget for
    # (k + 2) x (k + 2) norms, with no RuntimeWarning at 1e-320 or 1e150
    a, k = np.array(a, dtype=complex), len(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = embedding._block_spectra(a[None])[0]
        full = singular_values(embedding._fill(a[None]))[0]
    assert got.shape == (k + 2,) and got[-2:].tolist() == [0.0, 0.0]
    assert spectra_agree(got, full, k + 2)


def spectra_agree(got, full, dim):
    """Whether two spectra of one dim x dim matrix agree: the operator and
    Schatten-1 norms within the :func:`agree` budget, and each singular
    value within that of the operator norm (by Weyl's bound, an SVD's error
    in every singular value is bounded by the norm's), by offsetting both
    by the norm."""
    norm = float(full[0])
    offset = all(agree(float(x) + norm, float(y) + norm, dim) for x, y in zip(got, full, strict=True))
    return offset and agree(float(got[0]), norm, dim) and agree(float(got.sum()), float(full.sum()), dim)
