"""Matrix backends, norms and idempotency checks."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opalg import (
    DEFAULT_TOL,
    EXACT,
    DimensionError,
    Matrix,
    Tolerance,
    is_idempotent,
    op_norm,
    schatten1_norm,
)


def test_op_norm_identity_is_one():
    assert op_norm(Matrix.identity(3)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_rank_one_closed_form():
    # M M* = [[5, 0], [0, 0]], so the norm is sqrt(5)
    m = Matrix.exact([[1, 2], [0, 0]])
    assert op_norm(m) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_op_norm_diagonal_picks_largest_modulus():
    assert op_norm(Matrix.diag([1, -3])) == pytest.approx(3.0, abs=1e-12)


def test_schatten1_identity_counts_dimension():
    for n in (1, 2, 5):
        assert schatten1_norm(Matrix.identity(n)) == pytest.approx(float(n), abs=1e-10)


def test_schatten1_rank_one_single_value():
    m = Matrix.exact([[1, 2], [0, 0]])
    assert schatten1_norm(m) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_norms_reject_empty():
    with pytest.raises(DimensionError):
        op_norm(Matrix.zeros(0, 3))
    with pytest.raises(DimensionError):
        schatten1_norm(Matrix.zeros(2, 0))


def test_is_idempotent_examples():
    e2 = Matrix.exact([[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert is_idempotent(e2, EXACT)
    assert not is_idempotent(Matrix.identity(2) * 2, EXACT)
    assert is_idempotent(Matrix.zeros(3), EXACT)


def test_is_idempotent_needs_square():
    with pytest.raises(DimensionError):
        is_idempotent(Matrix.zeros(2, 3))


def test_tolerance_invariant():
    assert Tolerance.exact().abs_tol == 0.0
    assert DEFAULT_TOL.mode == "approx"
    with pytest.raises(ValueError):
        Tolerance(0.0, "approx")
    with pytest.raises(ValueError):
        Tolerance(1e-9, "exact")
    with pytest.raises(ValueError):
        Tolerance(-1.0, "approx")


def test_exact_arithmetic_is_exact():
    a = Matrix.exact([[Fraction(1, 3), 1], [0, Fraction(2, 7)]])
    b = Matrix.exact([[3, 0], [Fraction(7, 2), 1]])
    prod = a @ b
    assert prod.entry(0, 0) == (Fraction(9, 2), 0)
    assert prod.entry(1, 0) == (1, 0)


def test_exact_products_are_reproducible():
    a = Matrix.exact([[1, Fraction(5, 3)], [2, 7]])
    b = Matrix.exact([[Fraction(-2, 9), 4], [1, 0]])
    first = (a @ b).to_rational_strings()
    second = (a @ b).to_rational_strings()
    assert first == second


def test_complex_exact_matmul():
    i = (0, 1)
    a = Matrix.exact([[i]])
    sq = a @ a
    assert sq.entry(0, 0) == (-1, 0)
    assert (a @ a @ a @ a).equals(Matrix.identity(1))


def test_adjoint_conjugates():
    a = Matrix.exact([[(1, 2), 3], [0, (0, -1)]])
    h = a.adjoint()
    assert h.entry(0, 0) == (1, -2)
    assert h.entry(0, 1) == (0, 0)
    assert h.entry(1, 0) == (3, 0)


def test_dyadic_exact_to_float_is_lossless():
    a = Matrix.exact([[Fraction(3, 8), 1], [Fraction(-5, 4), 0]])
    arr = a.numpy()
    assert arr[0, 0] == 0.375 and arr[1, 0] == -1.25


def test_rational_string_round_trip():
    a = Matrix.exact([[(Fraction(1, 3), Fraction(-2, 5)), 4], [0, Fraction(9, 7)]])
    again = Matrix.from_rational_strings(a.to_rational_strings())
    assert again.equals(a)


def test_exact_division_keeps_integers_integer():
    a = Matrix.exact([[2, -4], [0, 6]])
    half = a / 2
    assert half.equals(Matrix.exact([[1, -2], [0, 3]]))
    assert type(half.entry(1, 1)[0]) is int
    assert (a / 4).entry(0, 0) == (Fraction(1, 2), 0)
    assert (a / (0, 2)).equals(Matrix.exact([[(0, -1), (0, 2)], [0, (0, -3)]]))
    assert (a.to_float() / 2).max_abs_diff(half.to_float()) == 0.0


def test_content_divides_to_integers():
    a = Matrix.exact([[2, (0, -4)], [Fraction(6, 5), 0]])
    g = a.content()
    assert g == Fraction(2, 5)
    primitive = a / g
    assert primitive.equals(Matrix.exact([[5, (0, -10)], [3, 0]]))
    assert all(type(x) is int for pair in (primitive.entry(0, 1), primitive.entry(1, 0)) for x in pair)
    assert Matrix.zeros(2).content() == 0
    assert a.to_float().content() == 1


def test_pivot_choice_per_backend():
    a = Matrix.exact([[0, 3], [(0, -1), 2]])
    assert a.pivot() == (1, 0)
    assert a.to_float().pivot() == (0, 1)
    assert Matrix.zeros(2).pivot() is None
    assert Matrix.zeros(2, backend="float").pivot() is None


def test_padded_preserves_block():
    a = Matrix.exact([[1, 2], [3, 4]])
    p = a.padded(4)
    assert p.shape == (4, 4)
    assert p.submatrix([0, 1]).equals(a)
    assert p.entry(3, 3) == (0, 0)


def test_mixed_backend_coerces_to_float():
    a = Matrix.exact([[1, 0], [0, 1]])
    b = Matrix.from_float([[0.5, 0], [0, 0.5]])
    assert (a @ b).backend == "float"
    assert (a * 0.5).backend == "float"
    assert (a * Fraction(1, 2)).backend == "exact"


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def float_matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    re = draw(st.lists(st.lists(finite, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    im = draw(st.lists(st.lists(finite, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix.from_float(np.array(re) + 1j * np.array(im))


@given(float_matrices())
@settings(max_examples=60, deadline=None)
def test_op_norm_below_schatten1(m):
    assert op_norm(m) <= schatten1_norm(m) + 1e-9


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
    m = Matrix.from_float(np.outer(y, x.conj()))
    expected = float(np.linalg.norm(x) * np.linalg.norm(y))
    assert op_norm(m) == pytest.approx(expected, abs=1e-9 * (1 + expected))
    assert schatten1_norm(m) == pytest.approx(expected, abs=1e-9 * (1 + expected))


def test_exact_kron_preserves_exactness():
    a = Matrix.exact([[Fraction(1, 2), 0], [0, 1]])
    b = Matrix.exact([[2, 1], [0, (0, 1)]])
    k = a.kron(b)
    assert k.is_exact
    assert k.entry(0, 0) == (1, 0)
    assert k.entry(1, 1) == (0, Fraction(1, 2))
