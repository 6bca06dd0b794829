"""Exact matrices, the scalar policy, norms and idempotency checks."""
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opalg import (
    DEFAULT_TOL,
    DimensionError,
    Matrix,
    op_norm,
    singular_values,
)
from opalg import ChainSpec, SubsetFamily, matrices, phi
import pairwise
from opalg.cli import main
from opalg.matrices import Stack, eliminate, kernel_dtype, products_agree, stack, stack_concat, stack_product


def test_op_norm_identity_is_one():
    assert op_norm(Matrix.identity(3)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_rank_one_closed_form():
    # M M* = [[5, 0], [0, 0]], so the norm is sqrt(5)
    m = Matrix.exact([[1, 2], [0, 0]])
    assert op_norm(m) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_op_norm_diagonal_picks_largest_modulus():
    assert op_norm(Matrix.diag([1, -3])) == pytest.approx(3.0, abs=1e-12)


def trace_norm(m):
    """Unnormalized Schatten-1 norm (sum of singular values)."""
    return float(singular_values(m.to_float()[None]).sum())


def test_schatten1_identity_counts_dimension():
    for n in (1, 2, 5):
        assert trace_norm(Matrix.identity(n)) == pytest.approx(float(n), abs=1e-10)


def test_schatten1_rank_one_single_value():
    m = Matrix.exact([[1, 2], [0, 0]])
    assert trace_norm(m) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_norms_reject_empty():
    with pytest.raises(DimensionError):
        op_norm(Matrix.zeros(0, 3))
    with pytest.raises(DimensionError):
        op_norm(Matrix.zeros(2, 0))
    with pytest.raises(DimensionError):
        singular_values(np.zeros((2, 3, 0), dtype=complex))


def test_singular_values_of_a_stack_match_each_matrix():
    mats = [Matrix.exact([[1, (2, 1)], [Fraction(1, 3), 0]]), Matrix.exact([[0.5, -1j], [2, 1e-300]])]
    stacked = singular_values(np.stack([m.to_float() for m in mats]))
    for row, m in zip(stacked, mats, strict=True):
        assert np.array_equal(row, singular_values(m.to_float()[None])[0]) and row[0] == op_norm(m)
        assert np.array_equal(row, np.linalg.svd(m.to_float(), compute_uv=False))


def is_idempotent(m):
    """Whether m @ m equals m, as one products_agree."""
    family = stack([m])
    return bool(products_agree(family, family, family)[0][0])


def test_is_idempotent_examples():
    e2 = Matrix.exact([[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert is_idempotent(e2)
    assert not is_idempotent(Matrix.identity(2) * 2)
    assert is_idempotent(Matrix.zeros(3))
    # a square that misses by 1e-12 is not idempotent, though its float
    # deviation is below the default tolerance
    near = Matrix.exact([[1, Fraction(1, 10**12)], [0, 1]])
    assert (near @ near - near).equals(Matrix.exact([[0, Fraction(1, 10**12)], [0, 0]]))
    assert (near @ near).max_abs_diff(near) <= DEFAULT_TOL
    assert not is_idempotent(near)


def test_exact_operands_never_agree_within_tolerance():
    # a and the identity differ by 2**-1100, which every float reading
    # rounds away: the deviation reads 0.0, and the identity still fails
    a = Matrix.exact([[1, Fraction(1, 2**1100)], [0, 1]])
    b = Matrix.identity(2)
    ok, dev = products_agree(*(stack([m]) for m in (a, b, b)))
    assert not ok[0] and dev[0] == 0.0 and a.max_abs_diff(b) == 0.0
    assert not a.equals(b) and not (a - b).equals(Matrix.zeros(2))
    assert (a + b - b).equals(a) and (a - a).equals(Matrix.zeros(2))


def test_is_idempotent_needs_square():
    with pytest.raises(DimensionError):
        is_idempotent(Matrix.zeros(2, 3))


def test_exact_arithmetic_is_exact():
    a = Matrix.exact([[Fraction(1, 3), 1], [0, Fraction(2, 7)]])
    b = Matrix.exact([[3, 0], [Fraction(7, 2), 1]])
    prod = a @ b
    assert prod.entry(0, 0) == (Fraction(9, 2), 0)
    assert prod.entry(1, 0) == (1, 0)


def test_exact_products_are_reproducible():
    a = Matrix.exact([[1, Fraction(5, 3)], [2, 7]])
    b = Matrix.exact([[Fraction(-2, 9), 4], [1, 0]])
    assert (a @ b).equals(a @ b)


def test_complex_exact_matmul():
    i = (0, 1)
    a = Matrix.exact([[i]])
    sq = a @ a
    assert sq.entry(0, 0) == (-1, 0)
    assert (a @ a @ a @ a).equals(Matrix.identity(1))


def test_dyadic_exact_to_float_is_lossless():
    a = Matrix.exact([[Fraction(3, 8), 1], [Fraction(-5, 4), 0]])
    arr = a.to_float()
    assert arr[0, 0] == 0.375 and arr[1, 0] == -1.25


def test_exact_division_keeps_integers_integer():
    # division is scalar * by the reciprocal
    a = Matrix.exact([[2, -4], [0, 6]])
    half = a * Fraction(1, 2)
    assert half.equals(Matrix.exact([[1, -2], [0, 3]]))
    assert type(half.entry(1, 1)[0]) is int
    assert (a * Fraction(1, 4)).entry(0, 0) == (Fraction(1, 2), 0)
    assert (a * pairwise.reciprocal((0, 2))).equals(Matrix.exact([[(0, -1), (0, 2)], [0, (0, -3)]]))
    assert (a * 0.5).equals(half)


def test_content_divides_to_integers():
    a = Matrix.exact([[2, (0, -4)], [Fraction(6, 5), 0]])
    g = pairwise.content(a)
    assert g == Fraction(2, 5)
    primitive = a * (1 / g)
    assert primitive.equals(Matrix.exact([[5, (0, -10)], [3, 0]]))
    assert all(type(x) is int for pair in (primitive.entry(0, 1), primitive.entry(1, 0)) for x in pair)
    assert pairwise.content(Matrix.zeros(2)) == 0


def test_pivot_choice_per_backend():
    # the elimination's pivot rule, kept by the reference elimination
    a = Matrix.exact([[0, 3], [(0, -1), 2]])
    assert pairwise.pivot(a) == (1, 0)
    assert pairwise.pivot(Matrix.zeros(2)) is None


def test_float_scalars_are_read_at_their_binary_value():
    # the scalar policy: a float or complex scalar is the rational it rounds
    # to, so no float ever reaches a matrix
    assert (Matrix.identity(2) * 0.1).equals(Matrix.identity(2) * Fraction(0.1))
    assert not (Matrix.identity(2) * 0.1).equals(Matrix.identity(2) * Fraction(1, 10))
    assert (Matrix.identity(2) * 0.25j).equals(Matrix.identity(2) * (0, Fraction(1, 4)))
    assert matrices.read_scalar(1e-320) == (Fraction(1e-320), 0)
    assert matrices.read_scalar(np.float64(-0.0)) == (0, 0) and matrices.read_scalar("3/4") == (Fraction(3, 4), 0)
    assert Matrix.exact([[0.5, -1j]]).equals(Matrix.exact([[Fraction(1, 2), (0, -1)]]))
    with pytest.raises(TypeError):
        matrices.read_scalar((1, 2, 3))
    with pytest.raises(TypeError):
        matrices.read_scalar((1j, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan), (1, math.inf)])
def test_non_finite_scalars_fail_clearly(bad):
    # NaN and infinities have no rational value: the one scalar reader names
    # them, wherever a scalar enters
    name = repr(bad[1] if isinstance(bad, tuple) else bad)
    with pytest.raises(ValueError, match=name):
        Matrix.identity(2) * bad
    if not isinstance(bad, (complex, tuple)):
        with pytest.raises(ValueError, match=name):
            ChainSpec.default(2, couplings=(bad,))
    with pytest.raises(ValueError, match=name):
        phi([1, bad], SubsetFamily.enumerate(2))


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def float_matrices(draw, max_dim=4):
    """Matrices of float draws, read at their exact binary value."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    re = draw(st.lists(st.lists(finite, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    im = draw(st.lists(st.lists(finite, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix.exact((np.array(re) + 1j * np.array(im)).tolist())


@given(float_matrices())
@settings(max_examples=60, deadline=None)
def test_op_norm_below_schatten1(m):
    assert op_norm(m) <= trace_norm(m) + 1e-9


@given(float_matrices(max_dim=3), float_matrices(max_dim=3))
@settings(max_examples=40, deadline=None)
def test_kron_norm_is_multiplicative(u, v):
    assert op_norm(u.kron(v)) == pytest.approx(op_norm(u) * op_norm(v), abs=1e-9 * (1 + op_norm(u) * op_norm(v)))


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_one_norms_agree(n, data):
    vec = st.lists(finite, min_size=n, max_size=n)
    x = np.array(data.draw(vec)) + 1j * np.array(data.draw(vec))
    y = np.array(data.draw(vec)) + 1j * np.array(data.draw(vec))
    m = Matrix.exact(np.outer(y, x.conj()).tolist())
    expected = float(np.linalg.norm(x) * np.linalg.norm(y))
    assert op_norm(m) == pytest.approx(expected, abs=1e-9 * (1 + expected))
    assert trace_norm(m) == pytest.approx(expected, abs=1e-9 * (1 + expected))


def test_exact_kron_preserves_exactness():
    a = Matrix.exact([[Fraction(1, 2), 0], [0, 1]])
    b = Matrix.exact([[2, 1], [0, (0, 1)]])
    k = a.kron(b)
    assert k.is_exact
    assert k.entry(0, 0) == (1, 0)
    assert k.entry(1, 1) == (0, Fraction(1, 2))


# -- oracle: nested lists of (re, im) Fractions, one entry at a time ----------

def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_matmul(a, b):
    def dot(i, j):
        acc = (Fraction(0), Fraction(0))
        for k in range(len(b)):
            acc = _cadd(acc, _cmul(a[i][k], b[k][j]))
        return acc

    return [[dot(i, j) for j in range(len(b[0]))] for i in range(len(a))]


def ref_kron(a, b):
    return [[_cmul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def ref_add(a, b, sign=1):
    return [[_cadd(x, (sign * y[0], sign * y[1])) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(a, z):
    return [[_cmul(x, z) for x in row] for row in a]


def ref_div(a, z):
    norm = z[0] * z[0] + z[1] * z[1]
    return ref_scale(a, (z[0] / norm, -z[1] / norm))


def as_ref(m):
    return [[tuple(Fraction(x) for x in m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def ref_float(a):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in a])


def ref_entry(v):
    """An int, Fraction, (re, im) pair or complex as a (re, im) Fraction pair."""
    if isinstance(v, tuple):
        return (Fraction(v[0]), Fraction(v[1]))
    if isinstance(v, complex):
        return (Fraction(v.real), Fraction(v.imag))
    return (Fraction(v), Fraction(0))


def ref_diag(values):
    zero = (Fraction(0), Fraction(0))
    return [[ref_entry(v) if i == j else zero for j in range(len(values))] for i, v in enumerate(values)]


# large coprime denominators (Mersenne primes) and entries whose numerator
# and denominator both exceed 2^1100
MERSENNE = (2**61 - 1, 2**89 - 1, 2**127 - 1, 2**1279 - 1, 2**2203 - 1)
small_q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coprime_q = st.builds(Fraction, st.integers(-2**130, 2**130), st.sampled_from(MERSENNE))
huge_q = st.builds(
    lambda sign, n, d: Fraction(sign * n, d),
    st.sampled_from((1, -1)), st.integers(2**1100 + 1, 2**1279 - 2), st.sampled_from((2**1279 - 1, 2**2203 - 1)),
)
wide_q = st.builds(
    lambda n, d: Fraction(n, d), st.integers(-2**1103, 2**1103), st.integers(2**1101, 2**1103)
)
rational = st.one_of(st.just(Fraction(0)), small_q, coprime_q, huge_q, wide_q)
complex_q = st.tuples(rational, st.one_of(st.just(Fraction(0)), rational))


@st.composite
def ref_matrices(draw, rows=None, cols=None, real=None):
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    real = draw(st.booleans()) if real is None else real
    entry = st.tuples(rational, st.just(Fraction(0))) if real else complex_q
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def check_matches(m, ref):
    assert m.is_exact and m.shape == (len(ref), len(ref[0]))
    assert as_ref(m) == ref
    assert m.equals(Matrix.exact(ref))
    for i in range(m.rows):
        for j in range(m.cols):
            for part in m.entry(i, j):
                assert type(part) is int or (type(part) is Fraction and part.denominator > 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_products_match_oracle(data):
    n, k, p = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(ref_matrices(n, k))
    b = data.draw(ref_matrices(k, p))
    ma, mb = Matrix.exact(a), Matrix.exact(b)
    check_matches(ma, a)
    check_matches(ma @ mb, ref_matmul(a, b))
    check_matches(ma.kron(mb), ref_kron(a, b))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_products_agree_matches_pairwise_oracle(data):
    # per index, the verdict of equals and max_abs_diff's deviation, bit for bit
    n, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b = ([Matrix.exact(data.draw(ref_matrices(n, n))) for _ in range(count)] for _ in range(2))
    # the product, the product moved by i in one entry, or a random matrix
    moved = Matrix.diag([(0, 1)] + [0] * (n - 1))
    kinds = [data.draw(st.sampled_from(["product", "moved", "random"])) for _ in range(count)]
    t = [
        Matrix.exact(data.draw(ref_matrices(n, n))) if kind == "random" else x @ y + moved * int(kind == "moved")
        for kind, x, y in zip(kinds, a, b)
    ]
    ok, dev = matrices.products_agree(*(matrices.stack(f) for f in (a, b, t)))
    assert ok.tolist() == [(x @ y).equals(z) for x, y, z in zip(a, b, t)]
    assert dev.tolist() == [(x @ y).max_abs_diff(z) for x, y, z in zip(a, b, t)]


def fraction_products_agree(a, b, t):
    """The Fraction oracle for products_agree on exact stacks: per index,
    whether A_k B_k = T_k, and the largest modulus of an entry of their
    difference, each part rounded once."""
    ok, dev = [], []
    for x, y, z in zip(*(pairwise.entries(s) for s in (a, b, t))):
        diff = [(p[0] - q[0], p[1] - q[1]) for r, w in zip(ref_matmul(x, y), z) for p, q in zip(r, w)]
        ok.append(not any(re or im for re, im in diff))
        dev.append(float(np.abs(np.array([complex(float(re), float(im)) for re, im in diff])).max()))
    return ok, dev


@given(st.data(), st.sampled_from([-2, -1, 0, 1, 2, 3]))
@settings(max_examples=80, deadline=None)
def test_products_agree_near_the_float64_bound(data, step):
    # int64 stacks whose bound 2 n max|A| max|B| sits just under 2**53 (the
    # product runs exactly on float64 BLAS) or just over it (on int64); the
    # first row of A and column of B make one product entry the bound less
    # the odd max|A|, past 2**53 from step 2, where float64 would round it
    n, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    amax = data.draw(st.integers(1, 2**26)) | 1
    bmax = (2**53 - 1) // (2 * n * amax) + step
    assert (2 * n * amax * bmax < 2**53) == (step <= 0)
    parts = []
    for big in (amax, amax, bmax, bmax):
        x = np.array(data.draw(st.lists(st.integers(-big, big), min_size=count * n * n, max_size=count * n * n)))
        parts.append(x.reshape(count, n, n).astype(np.int64))
    ar, ai, br, bi = parts
    ar[:, 0, :] = ai[:, 0, :] = amax
    br[:, :, 0], bi[:, :, 0] = bmax, -bmax
    bi[:, 0, 0] += 1
    da, db = data.draw(st.sampled_from([1, 3])), data.draw(st.sampled_from([1, 5]))
    # the product over da db, or over 2 da db, moved by an odd amount in one entry or not
    re = np.matmul(ar.astype(object), br) - np.matmul(ai.astype(object), bi)
    im = np.matmul(ar.astype(object), bi) + np.matmul(ai.astype(object), br)
    scale = data.draw(st.sampled_from([1, 2]))
    tr, ti = re * scale, im * scale
    for k in range(count):
        if data.draw(st.booleans()):
            tr[k, data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-3, 1]))
    a, b, t = Stack.read(ar, ai, da), Stack.read(br, bi, db), Stack.read(tr, ti, da * db * scale)
    top = 2 * n * amax * bmax - amax
    assert max(abs(int(x)) for x in re.flat) == top and (top > 2**53 or step < 2)
    ok, dev = matrices.products_agree(a, b, t)
    assert (ok.tolist(), dev.tolist()) == fraction_products_agree(a, b, t)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_sums_and_scalars_match_oracle(data):
    a = data.draw(ref_matrices())
    b = data.draw(ref_matrices(len(a), len(a[0])))
    z = data.draw(complex_q)
    ma, mb = Matrix.exact(a), Matrix.exact(b)
    check_matches(ma + mb, ref_add(a, b))
    check_matches(ma - mb, ref_add(a, b, -1))
    check_matches(ma * z, ref_scale(a, z))
    check_matches(ma * z[0], ref_scale(a, (z[0], Fraction(0))))
    if z != (0, 0):
        check_matches(ma * pairwise.reciprocal(z), ref_div(a, z))
    if z[0] != 0:
        check_matches(ma * (1 / z[0]), ref_div(a, (z[0], Fraction(0))))
    # lowest terms make equality structural: a + b - b is a again
    assert (ma + mb - mb).equals(ma)
    assert ma.equals(mb) == (a == b)
    assert pairwise.is_zero(ma - ma)
    assert pairwise.is_zero(ma) == all(x == (0, 0) for row in a for x in row)


@given(ref_matrices())
# two float moduli one ulp apart, which np.abs reads as equal
@example([[(Fraction(152621734757596538981962067972029887, 618970019642690137449562111), Fraction(0)),
           (Fraction(152621734757596538981962067972029887, 618970019642690137449562111), Fraction(9, 2))]])
@settings(max_examples=80, deadline=None)
def test_exact_readouts_match_oracle(a):
    m = Matrix.exact(a)
    assert m.to_float().tobytes() == ref_float(a).tobytes()
    g = pairwise.content(m)
    parts = [x for row in a for pair in row for x in pair]
    if all(x == 0 for x in parts):
        assert g == 0
    else:
        quotients = [x / g for x in parts]
        assert g > 0 and all(q.denominator == 1 for q in quotients)
        assert math.gcd(*(q.numerator for q in quotients)) == 1
    # the pivot is the first nonzero entry of least exact modulus, even where
    # moduli underflow or overflow as floats, in the reference elimination and
    # in the rule the stacked one applies (its kept rows and coordinates do not
    # show the choice: exact arithmetic fixes them whatever the pivot)
    mags = [Fraction(re) ** 2 + Fraction(im) ** 2 for row in a for re, im in row]
    nonzero = [k for k, mag in enumerate(mags) if mag]
    expected = divmod(min(nonzero, key=mags.__getitem__), len(a[0])) if nonzero else None
    assert (None if pairwise.pivot(m) is None else tuple(int(x) for x in pairwise.pivot(m))) == expected
    if nonzero:
        head = [x.reshape(1, -1) for x in (m._s.re, m._s.im) if x is not None]
        assert divmod(int(matrices._pivots(head, m._s.bound)[0]), len(a[0])) == expected
    top = max(max(abs(Fraction(re)), abs(Fraction(im))) for row in a for re, im in row)
    k = pairwise.exponent(m)
    assert k == 0 if top == 0 else Fraction(2) ** (k - 1) < top < Fraction(2) ** (k + 1)


def test_from_stack_reduces_to_lowest_terms():
    re = np.array([[2, 4], [6, 0]], dtype=object)
    im = np.array([[0, 2], [0, 0]], dtype=object)
    m = Matrix.from_stack(Stack.read(re, im, 4))
    assert m.equals(Matrix.exact([[Fraction(1, 2), (1, Fraction(1, 2))], [Fraction(3, 2), 0]]))
    assert (m._s.den, m._s.re.tolist(), m._s.im.tolist()) == (2, [[1, 2], [3, 0]], [[0, 1], [0, 0]])
    assert Matrix.from_stack(Stack.read(re, np.zeros((2, 2), dtype=object), 2)).equals(Matrix.exact([[1, 2], [3, 0]]))
    # a zero matrix over any denominator is 0 / 1
    zero = Matrix.from_stack(Stack(np.zeros((2, 2), dtype=np.int64), None, 2**70 + 1, 0))
    assert (zero._s.den, pairwise.is_zero(zero)) == (1, True)


diag_value = st.one_of(
    st.integers(-2**70, 2**70),
    rational,
    complex_q,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@given(st.lists(diag_value, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_diag_matches_oracle(values):
    # complex values are taken at their binary value, as matrix scalars are
    check_matches(Matrix.diag(values), ref_diag(values))


def test_identity_and_empty_diag_match_reference():
    for n in (1, 2, 5):
        check_matches(Matrix.identity(n), ref_diag([1] * n))
    for empty in (Matrix.diag([]), Matrix.identity(0)):
        assert empty.shape == (0, 0) and empty.equals(Matrix.zeros(0))


def ref_rank(vectors):
    """Rank of real Fraction vectors by Gaussian elimination on lists."""
    rows, rank = [list(v) for v in vectors], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ref_complex_rank(mats):
    """Complex rank of matrices in (re, im) form: as real vectors, m and
    i m span the complex line of m, so the real rank is twice the complex."""
    vecs = []
    for m in mats:
        entries = [x for row in m for x in row]
        vecs.append([re for re, _ in entries] + [im for _, im in entries])
        vecs.append([-im for _, im in entries] + [re for re, _ in entries])
    return ref_rank(vecs) // 2


@st.composite
def ref_families(draw):
    """Up to five small rational matrices of one shape, some of them
    combinations of earlier ones."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    real = draw(st.booleans())
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.tuples(small, st.just(Fraction(0)) if real else small)
    grid = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    family = []
    for _ in range(draw(st.integers(1, 5))):
        if family and draw(st.booleans()):
            acc = [[(Fraction(0), Fraction(0))] * cols for _ in range(rows)]
            for m in family:
                acc = ref_add(acc, ref_scale(m, draw(entry)))
            family.append(acc)
        else:
            family.append(draw(grid))
    return family


def family_batch(mats):
    """Same-shape matrices as a batch of one family stack: numerators over
    the least common denominator, as Python integers."""
    parts = [m._s for m in mats]
    den = math.lcm(*(x.den for x in parts))
    re = np.stack([x.re.astype(object) * (den // x.den) for x in parts])
    im = np.stack([(np.zeros_like(x.re) if x.im is None else x.im).astype(object) * (den // x.den) for x in parts])
    return Stack.read(re[None], im[None], den)


def coordinate(coords, k, j):
    """Entry (k, j) of the first family's coordinates, an (re, im) pair."""
    re, im, den = coords.re, coords.im, coords.den
    return Fraction(int(re[0, k, j]), den), Fraction(0 if im is None else int(im[0, k, j]), den)


@given(ref_families(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_eliminate_matches_fraction_oracle(family, rows):
    mats = [Matrix.exact(m) for m in family]
    kept, spanned, coords = eliminate(family_batch(mats))
    kept, spanned = np.flatnonzero(kept[0]).tolist(), spanned[0]
    for k in range(len(mats)):
        # independent exactly when the rank grows, as the oracle computes it
        assert (not spanned[k]) == (ref_complex_rank(family[:k + 1]) > ref_complex_rank(family[:k]))
        acc = Matrix.zeros(*mats[0].shape)
        for j in kept:
            acc = acc + mats[j] * coordinate(coords, k, j)
        assert acc.equals(mats[k])
        assert all(coordinate(coords, k, j) == (0, 0) for j in range(len(mats)) if j not in kept)
    assert kept == [k for k in range(len(mats)) if not spanned[k]]
    assert eliminate(family_batch(mats), coordinates=False)[0].sum() == ref_complex_rank(family)
    # only the first ``rows`` are kept; a later one is tested against them
    limited, spanned, coords = eliminate(family_batch(mats), rows=rows)
    limited = np.flatnonzero(limited[0]).tolist()
    assert limited == [k for k in kept if k < rows]
    for k in range(rows, len(mats)):
        head = [family[j] for j in limited]
        assert (not spanned[0, k]) == (ref_complex_rank(head + [family[k]]) > len(head))
        assert all(coordinate(coords, k, j) == (0, 0) for j in range(len(mats)) if not spanned[0, k])


@st.composite
def elimination_families(draw):
    """Up to five square matrices of one size, real or complex, with zero
    members and members that combine earlier ones."""
    dim, kind = draw(st.integers(1, 3)), draw(st.sampled_from(["real", "complex"]))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = small if kind == "real" else st.tuples(small, small)
    family = []
    for _ in range(draw(st.integers(1, 5))):
        choice = draw(st.sampled_from(["new", "zero", "combination"] if family else ["new", "zero"]))
        if choice == "new":
            m = Matrix.exact(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
        elif choice == "zero":
            m = Matrix.zeros(dim)
        else:
            m = Matrix.zeros(dim)
            for x in family:
                m = m + x * draw(entry)
        family.append(m)
    return family


@given(elimination_families())
@settings(max_examples=150, deadline=None)
def test_stacked_eliminate_matches_pairwise_reference(family):
    # the stacked elimination keeps what the one-matrix-at-a-time reference
    # keeps, with the same coordinates, exactly
    ref_kept, ref_coords = pairwise.eliminate(family)
    kept, spanned, coords = eliminate(family_batch(family))
    assert np.flatnonzero(kept[0]).tolist() == ref_kept
    for k, x in enumerate(ref_coords):
        assert spanned[0, k] == (x is not None)
        for b, j in enumerate(ref_kept):
            got = coordinate(coords, k, j)
            want = (0, 0) if x is None and k not in ref_kept else (1, 0) if x is None else x.entry(0, b)
            if k in ref_kept:
                want = (int(k == j), 0)
            assert got == want


@given(elimination_families(), st.lists(st.integers(0, 9), max_size=6), st.none() | st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_zero_columns_change_no_elimination(family, spots, rows):
    # a column zero in every row stays zero under row operations and holds no
    # pivot, so zero columns padded in anywhere leave kept, spanned and the
    # coordinates as they are
    batch = family_batch(family)
    flat = batch.apply(lambda x: x.reshape(1, len(family), -1))
    padded = flat.apply(lambda x: np.insert(x, [min(s, x.shape[2]) for s in spots], 0, axis=2))
    listed = lambda s: (s.den, s.re.tolist(), None if s.im is None else s.im.tolist())
    got, want = (eliminate(x, rows=rows) for x in (padded, batch))
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert listed(got[2]) == listed(want[2])
    # a column is live when either part is nonzero there: i F keeps what F keeps
    turned = eliminate(Stack.read(-batch.im, batch.re, batch.den), rows=rows)
    assert turned[0].tolist() == want[0].tolist() and turned[1].tolist() == want[1].tolist()


# -- int64 kernels against the same products on Python integers --------------

def on_python_ints(compute):
    """compute() with every exact product forced onto object numerators."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "kernel_dtype", lambda *bounds, **kw: object)
        return compute()


def chosen_dtypes(compute):
    """(compute(), the dtypes kernel_dtype picked meanwhile)."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "kernel_dtype", lambda *b, **kw: seen.append(kernel_dtype(*b, **kw)) or seen[-1])
        return compute(), seen


def same_representation(x, y):
    return x.equals(y) and x._s.den == y._s.den and all(
        type(part) in (int, Fraction) for i in range(x.rows) for j in range(x.cols) for part in x.entry(i, j)
    )


@st.composite
def edge_operands(draw):
    """(op, product): an exact product (dot, kron or scalar) whose numerators
    reach near the int64 bound 2 inner max|a| max|b| <= 2**63 - 1 from
    either side."""
    op = draw(st.sampled_from(["dot", "kron", "scalar"]))
    n, k, p = (draw(st.integers(1, 3)) for _ in range(3))
    inner = k if op == "dot" else 1
    # max|a| near 2**e and max|b| near the largest value the bound allows
    e = draw(st.integers(0, 61))
    big_a = 2**e + draw(st.integers(-1, 1)) if e else 1
    big_b = max(1, _INT64 // (2 * inner * big_a) + draw(st.integers(-2, 2)))
    den = st.sampled_from([1, 2, 3, 2**61 - 1])

    def numerators(rows, cols, big):
        arr = np.array(draw(st.lists(st.integers(-big, big), min_size=rows * cols, max_size=rows * cols)),
                       dtype=object).reshape(rows, cols)
        arr.flat[draw(st.integers(0, rows * cols - 1))] = big * draw(st.sampled_from([1, -1]))
        im = None if draw(st.booleans()) else arr[::-1, ::-1] * draw(st.sampled_from([1, -1]))
        return arr, im

    a = Matrix.from_stack(Stack.read(*numerators(n, k, big_a), draw(den)))
    if op == "scalar":
        z = (Fraction(big_b, draw(den)), Fraction(draw(st.integers(-big_b, big_b)), draw(den)))
        return op, lambda: a * z
    b = Matrix.from_stack(Stack.read(*numerators(k if op == "dot" else p, p, big_b), draw(den)))
    return op, (lambda: a @ b) if op == "dot" else (lambda: a.kron(b))


_INT64 = 2**63 - 1


@given(edge_operands())
@settings(max_examples=150, deadline=None)
def test_int64_products_match_python_int_products(case):
    op, product = case
    result, dtypes = chosen_dtypes(product)
    assert same_representation(result, on_python_ints(product))
    # scalar products go through the same kernel and dtype rule as @ and kron
    assert len(dtypes) == 1


@pytest.mark.parametrize("op", ["dot", "kron", "scalar"])
def test_product_dtype_at_the_int64_edge(op):
    # a = A (1 + i) and b = B (1 - i) give re = 2 A B exactly, so the bound
    # 2 max|a| max|b| <= 2**63 - 1 is tight: at A B = 2**62 - 1 the product
    # runs on int64, at A B = 2**62 it would overflow and runs on objects
    for big_a, big_b, dtype in [(2**31 - 1, 2**31 + 1, np.int64), (2**31, 2**31, object)]:
        a = Matrix.exact([[(big_a, big_a)]])
        if op == "scalar":
            product = lambda: a * (big_b, -big_b)  # noqa: E731
        else:
            b = Matrix.exact([[(big_b, -big_b)]])
            product = (lambda: a @ b) if op == "dot" else (lambda: a.kron(b))  # noqa: E731
        result, dtypes = chosen_dtypes(product)
        assert dtypes == [dtype]
        assert result.entry(0, 0) == (2 * big_a * big_b, 0)
        assert same_representation(result, on_python_ints(product))
    # the inner dimension counts: three terms of 2 A B each
    a = Matrix.exact([[(2**30, 2**30)] * 3])
    for scale, dtype in [(1, np.int64), (2, object)]:
        b = Matrix.exact([[(2**30 * scale, -2**30 * scale)]] * 3)
        result, dtypes = chosen_dtypes(lambda: a @ b)
        assert dtypes == [dtype] and result.entry(0, 0) == (6 * 2**60 * scale, 0)


# -- numerator bounds: loose but never low ---------------------------------------

@st.composite
def exact_stacks(draw, shape):
    """An exact stack of ``shape``: numerators up to 2**70 in modulus, real or
    complex, on int64 when they fit and the draw asks for it, over a rational
    denominator, with a bound at or above their largest modulus."""
    size, big = math.prod(shape), 2 ** draw(st.integers(0, 70))

    def part():
        return np.array(draw(st.lists(st.integers(-big, big), min_size=size, max_size=size)), dtype=object).reshape(shape)

    s = Stack.read(part(), None if draw(st.booleans()) else part(), draw(st.sampled_from([1, 3, 2**61 - 1, 2**70 + 1])))
    if s.bound < 2**63 and draw(st.booleans()):
        s = s.apply(lambda x: x.astype(np.int64))
    return Stack(s.re, s.im, s.den, s.bound + draw(st.sampled_from([0, 1, 2**40, 2**64])))


def check_stack(s, want):
    """The stack's bound holds, and its entries are the oracle's."""
    assert pairwise.numerator_max(s) <= s.bound
    assert pairwise.entries(s) == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_bounds_hold_and_values_match_oracle(data):
    count, n, k, p = (data.draw(st.integers(1, 3)) for _ in range(4))
    a, b, c = (data.draw(exact_stacks(shape)) for shape in ((count, n, k), (count, k, p), (count, n, k)))
    ea, eb, ec = (pairwise.entries(x) for x in (a, b, c))
    check_stack(stack_product(np.matmul, a, b, k), [ref_matmul(x, y) for x, y in zip(ea, eb)])
    check_stack(stack_product(np.multiply, a, c),
                [[[_cmul(x, y) for x, y in zip(r, q)] for r, q in zip(u, v)] for u, v in zip(ea, ec)])
    check_stack(stack_product(np.kron, a.take(0), b.take(0)), ref_kron(ea[0], eb[0]))
    check_stack(stack_concat([a, c]), ea + ec)
    check_stack(stack_concat([a, c], axis=-1), [[r + q for r, q in zip(u, v)] for u, v in zip(ea, ec)])
    # Stack.of, the one rule from rationals to numerators: entries over their
    # lcm, bounded by the largest numerator it forms, im None exactly when real
    part = st.one_of(st.integers(-2**70, 2**70),
                     st.builds(Fraction, st.integers(-2**70, 2**70), st.sampled_from([1, 3, 4, 2**61 - 1, 2**70 + 1])))
    pairs = data.draw(st.lists(st.tuples(part, st.one_of(st.just(0), part)), max_size=6))
    s = Stack.of(pairs)
    assert pairwise.entries(s) == pairs and s.bound == pairwise.numerator_max(s)
    assert s.den == math.lcm(*(Fraction(x).denominator for pair in pairs for x in pair))
    assert (s.im is None) == all(im == 0 for _, im in pairs)
    # Matrix arithmetic on views of the stacks, in lowest terms
    ma, mb, mc = (Matrix.from_stack(x.take(0)) for x in (a, b, c))
    z = data.draw(complex_q)
    for m, want in [
        (ma + mc, ref_add(ea[0], ec[0])),
        (ma - mc, ref_add(ea[0], ec[0], -1)),
        (ma @ mb, ref_matmul(ea[0], eb[0])),
        (ma.kron(mb), ref_kron(ea[0], eb[0])),
        (ma * z, ref_scale(ea[0], z)),
    ]:
        check_stack(m._s, want)
        assert m.equals(Matrix.exact(want))
    # stacks of Matrix views over mixed denominators, with a zero matrix given
    # over a denominator past int64, and products_agree on them
    zero = Matrix.from_stack(Stack(np.zeros((n, n), dtype=np.int64), None, 2**70 + 1, 0))
    views = [Matrix.from_stack(data.draw(exact_stacks((n, n)))) for _ in range(3)] + [zero]
    fa, fb = ([views[i] for i in data.draw(st.permutations(range(4)))] for _ in range(2))
    # per index, the product (moved by 1/3 or not) or another view
    moved = Matrix.diag([Fraction(1, 3)] + [0] * (n - 1))
    ft = [data.draw(st.sampled_from([x @ y, x @ y + moved, views[0]])) for x, y in zip(fa, fb)]
    stacks = [stack(f) for f in (fa, fb, ft)]
    for s, f in zip(stacks, (fa, fb, ft)):
        check_stack(s, [pairwise.entries(m._s) for m in f])
        assert s.re.dtype == (np.int64 if s.bound < 2**63 else object)
    # exact constructors pick their numerators' dtype by the same rule
    for m, dtype in [(moved, np.int64), (Matrix.identity(3), np.int64), (Matrix.exact([[2**70]]), object)]:
        assert m._s.re.dtype == dtype == (np.int64 if m._s.bound < 2**63 else object)
    ok, dev = products_agree(*stacks)
    assert (ok.tolist(), dev.tolist()) == fraction_products_agree(*stacks)
    # the coordinates of a family's elimination, against the reference elimination
    family = data.draw(exact_stacks((1, count, n, n)))
    kept, _, coords = eliminate(family)
    assert pairwise.numerator_max(coords) <= coords.bound
    ref_kept, ref_coords = pairwise.eliminate([Matrix.from_stack(family.take((0, i))) for i in range(count)])
    assert np.flatnonzero(kept[0]).tolist() == ref_kept
    for i, x in enumerate(ref_coords):
        want = [(int(i == j), 0) if x is None else x.entry(0, b) for b, j in enumerate(ref_kept)]
        assert [coordinate(coords, i, j) for j in ref_kept] == want


def test_numerators_are_read_only_where_no_bound_comes_with_them(monkeypatch, tmp_path):
    # bounds travel with the stacks: no exact kernel and no Matrix arithmetic
    # reads numerators for one; parsed input, drawn trials and elimination do
    callers, read = [], matrices._numerator_max

    def traced(*parts):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            if frame.f_code.co_filename == matrices.__file__:
                names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return read(*parts)

    monkeypatch.setattr(matrices, "_numerator_max", traced)
    argv = ["all", "--m-max", "4", "--n-max", "4", "--f-cap", "8", "--s-max", "2", "--trials", "2", "--r-max", "4"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    kernels = {"stack_product", "stack_concat", "float_stack", "products_agree", "product_table", "_pivots"}
    arithmetic = {"__add__", "__sub__", "__neg__", "__mul__", "__matmul__", "kron"}
    assert callers and not set().union(*callers) & (kernels | arithmetic)
    sources = pathlib.Path(matrices.__file__).parent.glob("*.py")
    assert [f.name for f in sources if "_numerator_max" in f.read_text()] == ["matrices.py"]
