"""Tensor elements over a matrix algebra and their diagonal calculus.

A tensor element is a finite formal sum of matrix pairs u (x) v.  The
module builds the telescoping diagonals of a chain, their unitized
companions, certifies the multiplier-bounded approximate-diagonal
conditions, and realizes the expectation x -> sum u_i x v_i induced by a
finite exact diagonal.  A diagonal sequence is given by its increments
I_n = D_n - D_{n-1}; for the telescoping diagonals each is one term
g_n (x) g_n, and every D_n is a view of the first terms of one leg stack.

An element is its two leg stacks, and each operation on it is one array
kernel over those stacks: the multiplication map, the flattening, the
bimodule commutator, the unitization and the expectation.  There is no
second algebra of sums and scalings and no view as Matrix pairs;
:meth:`TensorElem.of` builds an element from its pairs.  Every norm
bound, and the zero test of a commutator with a diagonal sequence, goes
through one reduced form over linearly independent left legs, found for
a batch of elements by one stacked elimination; the identities of a
finite diagonal and its expectation are product identities
(:func:`opalg.matrices.products_agree`).  The commutators of a batch of
samples with every increment of a diagonal sequence share one such
elimination, and the unitized bound of an exact sample that commutes
with a diagonal has a closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .chains import Chain
from .matrices import (
    DEFAULT_TOL,
    DimensionError,
    Matrix,
    Stack,
    eliminate,
    float_stack,
    op_norm,
    products_agree,
    singular_values,
    stack,
    stack_concat,
    stack_difference,
    stack_product,
)

__all__ = [
    "TensorElem",
    "pi_map",
    "bimodule_commutator",
    "tensor_norm_bounds",
    "tensor_norm_upper",
    "unitize_diagonal",
    "FiniteDiagonal",
    "expectation_from_diagonal",
    "certify_expectation",
    "ExpectationReport",
    "certify_mbad",
    "MbadElementRecord",
    "MbadReport",
    "full_matrix_diagonal",
    "skew_idempotent_diagonal",
    "expectation_norm_demo",
    "ExpectationDemo",
]

# leg stacks: matrices.Stack, terms on axis -3, batch axes first


def _legs(mats, dim: int) -> Stack:
    """dim x dim matrices, or their stack, as one leg stack (:func:`opalg.matrices.stack`)."""
    shapes = {mats.re.shape[1:]} if isinstance(mats, Stack) else {m.shape for m in mats}
    if shapes - {(dim, dim)}:
        raise DimensionError(f"legs and actors must be {dim}x{dim}, got {sorted(shapes)}")
    empty = Stack(np.zeros((0, dim, dim), dtype=np.int64), None, 1, 0)
    return mats if isinstance(mats, Stack) else stack(mats) if mats else empty


def _nonzero(legs: Stack) -> np.ndarray:
    """Per leg, whether it has a nonzero entry."""
    return np.any([x != 0 for x in (legs.re, legs.im) if x is not None], axis=(0, -2, -1))


def _times(legs: Stack, k: int) -> Stack:
    return stack_product(np.multiply, legs, Stack(np.array(k, dtype=object), None, 1, abs(k)))


def _commutator(a: Stack, left: Stack, right: Stack) -> tuple[Stack, Stack]:
    """The legs of a . t - t . a for t = (left, right) and an actor stack a:
    the terms (a u, v), then the terms (u, -(v a))."""
    n = left.re.shape[-1]
    au, va = stack_product(np.matmul, a, left, n), stack_product(np.matmul, right, a, n)
    u, v = (x.apply(lambda y: np.broadcast_to(y, au.re.shape)) for x in (left, right))
    return stack_concat([au, u], axis=-3), stack_concat([v, va.apply(np.negative)], axis=-3)


def _pi_factors(left: Stack, right: Stack) -> tuple[Stack, Stack]:
    """[u_1 ... u_c] and [v_1; ...; v_c] per element, whose product is
    sum_i u_i v_i; the right legs' batch axes broadcast against the left's."""
    c, n = left.re.shape[-3:-1]
    return (left.apply(lambda x: np.swapaxes(x, -3, -2).reshape(*x.shape[:-3], n, c * n)),
            right.apply(lambda x: x.reshape(*x.shape[:-3], c * n, n)))


def _pi(left: Stack, right: Stack) -> Stack:
    """sum_i u_i v_i per element, as one product of :func:`_pi_factors`."""
    return stack_product(np.matmul, *_pi_factors(left, right), left.re.shape[-3] * left.re.shape[-1])


def _left_times(t: "TensorElem", xs: Stack) -> Stack:
    """The legs u_i x of t for each x of the stack ``xs`` (batch axes first),
    terms on axis -3: with the right legs, the terms of E(x) = sum_i u_i x v_i."""
    return stack_product(np.matmul, t._left, xs.apply(lambda x: x[..., None, :, :]), t.dim)


def _flatten(left: Stack, right: Stack) -> Stack:
    """sum_i kron(u_i, v_i) per element, one product of the legs' vec arrays
    whose entry ((a, c), (b, d)) is sum_i u_i[a, c] v_i[b, d]."""
    *lead, c, n, _ = left.re.shape
    vecs = stack_product(np.matmul, left.apply(lambda x: np.swapaxes(x.reshape(*lead, c, n * n), -1, -2)),
                         right.apply(lambda x: x.reshape(*lead, c, n * n)), c)
    return vecs.apply(lambda x: x.reshape(*lead, n, n, n, n).swapaxes(-3, -2).reshape(*lead, n * n, n * n))


class TensorElem:
    """Finite formal sum of pairs (u, v), all square of one dimension ``dim``,
    held only as a left and a right leg stack (:func:`opalg.matrices.stack`:
    integers over one denominator if the side is exact, else complex), terms
    on axis -3; :meth:`of` builds one from Matrix pairs.  A batch pads
    shorter elements with zero terms."""

    __slots__ = ("dim", "_left", "_right")

    def __init__(self, left: Stack, right: Stack, dim: int):
        self.dim, self._left, self._right = dim, left, right

    @classmethod
    def of(cls, pairs: Sequence[tuple[Matrix, Matrix]], dim: int | None = None) -> "TensorElem":
        """The element of ``pairs``, by default of the first leg's dimension."""
        pairs = tuple(pairs)
        dim = dim if dim is not None else pairs[0][0].rows if pairs else 0
        if dim < 1:
            raise DimensionError("tensor dimension must be positive")
        return cls(*(_legs(side, dim) for side in (list(zip(*pairs)) or [(), ()])), dim)

    @property
    def backend(self) -> str:
        return "float" if self._left.den is None or self._right.den is None else "exact"

    def _actor(self, a: Matrix) -> Stack:
        """A dim x dim matrix's own one-matrix stack; :func:`_legs` raises for other shapes."""
        return a._s if a.shape == (self.dim, self.dim) else _legs([a], self.dim)

    def flatten(self) -> Matrix:
        """Faithful matrix picture: sum of Kronecker products of the legs."""
        return Matrix.from_stack(_flatten(self._left, self._right))


def pi_map(t: TensorElem) -> Matrix:
    """sum u_i @ v_i for the element sum u_i (x) v_i."""
    return Matrix.from_stack(_pi(t._left, t._right))


def bimodule_commutator(a: Matrix, t: TensorElem) -> TensorElem:
    """a . t - t . a, as a tensor element with twice the terms of t: the
    terms (a u, v), then the terms (u, -(v a))."""
    return TensorElem(*_commutator(t._actor(a), t._left, t._right), t.dim)


def _reduce(left: Stack, right: Stack) -> tuple[Stack, Stack]:
    """Reduced forms of a batch of elements sum u_i (x) v_i, given and
    returned as (batch, terms, n, n) leg stacks, kept terms in order.
    An element is the matrix sum vec(u_i) vec(v_i)^T (Van Loan-Pitsianis),
    so eliminating (:func:`eliminate`) the left legs, each divided by its
    content, keeps its value: each kept leg B_b collects V_b = sum_i C_ib v_i
    for the coordinates C, one product of C^T with the right legs, and no
    independent leg is split, which would inflate sum ||B|| ||V||.  Terms
    whose V_b vanished are dropped, so an element is zero exactly when no
    term is left; a float term p (x) q counts as zero when max|p| max|q| is
    below 1e-12 max_i(max|u_i| max|v_i|, 1)."""
    batch, count, dim = left.re.shape[:3]
    if not count:
        return left, right
    exact = left.den is not None and right.den is not None
    if exact:
        # u / g and v g for the content g / den of u, g the gcd of its numerators
        flat = np.concatenate([x.reshape(batch, count, -1) for x in (left.re, left.im) if x is not None], axis=2)
        g = np.gcd.reduce(flat, axis=2, initial=0)
        g = np.where(_nonzero(right), g, 0)[..., None, None]
        right = stack_product(np.multiply, right, Stack.read(g, None, left.den))
        left = left.apply(lambda x: np.where(g != 0, x // np.maximum(g, 1), 0) if (g > 1).any() else x * (g != 0))
        left, limit = replace(left, den=1), 0.0
    else:
        left, right = (Stack(float_stack(x)) for x in (left, right))
        sizes = [np.abs(x.re).max(axis=(2, 3)) for x in (left, right)]
        tiny = 1e-12 * np.maximum(1.0, (sizes[0] * sizes[1]).max(axis=1))[:, None]
        with np.errstate(divide="ignore"):
            limit = tiny / sizes[1]
    kept, _, coords = eliminate(left, zero_below=limit)
    flat = right.apply(lambda x: x.reshape(batch, count, dim * dim))
    folded = stack_product(np.matmul, coords.apply(lambda x: x.transpose(0, 2, 1)), flat, count).apply(
        lambda x: x.reshape(batch, count, dim, dim))
    size = _nonzero(folded) if exact else sizes[0] * np.abs(folded.re).max(axis=(2, 3)) > tiny
    keep = kept & size
    slots, mask = np.flatnonzero(keep.any(axis=0)), keep[:, keep.any(axis=0), None, None]
    return tuple(x.apply(lambda y: np.where(mask, y[:, slots], 0)) for x in (left, folded))


# exact legs whose entries lie within 2**(+-_SAFE_EXPONENT) of 1 convert to
# float without overflow or underflow, and so does the product of two norms
_SAFE_EXPONENT = 256


def _shifts(legs: Stack) -> np.ndarray:
    """k_i per leg m_i: 0 unless the leg is far from 1, where it is the leg's
    exponent in lowest terms, bitlen(max|num_i| / g_i) - bitlen(den / g_i)
    for the gcd g_i of den and the numerators of m_i."""
    re, im, den = legs.re, legs.im, legs.den
    shifts = np.zeros(len(re), dtype=int)
    # a loose bound only sends legs near 1 here, where every shift is 0
    if den is None or not max(legs.bound, den) >> _SAFE_EXPONENT:
        return shifts
    flat = np.concatenate([x.reshape(len(x), -1).astype(object) for x in (re, im) if x is not None], axis=1)
    g = np.gcd(np.gcd.reduce(flat, axis=1), den)
    exponents = [int(t).bit_length() - (den // int(d)).bit_length() if t else 0
                 for t, d in zip(np.abs(flat).max(axis=1) // g, g)]
    shifts[:] = [k if abs(k) > _SAFE_EXPONENT else 0 for k in exponents]
    return shifts


def _scaled_floats(legs: Stack) -> tuple[np.ndarray, np.ndarray]:
    """(F, k), F_i = 2**-k_i m_i for the legs m_i and their :func:`_shifts`
    k_i, each entry rounded once, so F_i neither overflows nor underflows;
    2**k_i goes into the denominator, 2**-k_i into the numerators."""
    shifts = _shifts(legs)
    if not shifts.any():
        return float_stack(legs), shifts
    power = np.array([2 ** abs(k) for k in shifts.tolist()], dtype=object)
    num, dens = (np.where(side, power, 1)[:, None, None] for side in (shifts < 0, shifts > 0))
    scaled = Stack(legs.re * num, None if legs.im is None else legs.im * num, legs.den * dens,
                   legs.bound * int(power.max()))
    return float_stack(scaled), shifts


def _upper(left, right) -> np.ndarray:
    """Per element of a reduced batch, sum ||B|| ||V|| once dependent right
    legs are merged as well: all leg norms from one stacked SVD of the
    scaled readouts, each product scaled back once, added in term order."""
    v, b = _reduce(right, left)
    live = _nonzero(b)
    totals = np.zeros(len(live))
    if live.any():
        (fb, kb), (fv, kv) = (_scaled_floats(x.take(live)) for x in (b, v))
        norms = singular_values(np.concatenate([fb, fv]))[:, 0]
        x, y, k = np.zeros(live.shape), np.zeros(live.shape), np.zeros(live.shape, dtype=int)
        x[live], y[live], k[live] = norms[:len(fb)], norms[len(fb):], kb + kv
        with np.errstate(over="ignore"):  # a bound past float range reads inf
            for c in range(live.shape[1]):
                totals += np.where(live[:, c], np.ldexp(x[:, c] * y[:, c], k[:, c]), 0.0)
    return totals


def tensor_norm_upper(t: TensorElem) -> float:
    """Projective-norm upper bound: sum ||B|| ||V|| over the reduced form,
    reduced once more on the right legs."""
    return float(_upper(*_reduce(t._left.take(None), t._right.take(None)))[0])


def _bounds(left, right, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """(lower, upper, zero, reduced) per element of a batch off its reduced
    form: the bracket of :func:`tensor_norm_bounds`, whether it is zero (its
    form is empty if exact, its upper bound at most tol if float), the form."""
    reduced = _reduce(left, right)
    nonzero = _nonzero(reduced[0]).any(axis=1)
    lower, upper = np.zeros(len(nonzero)), np.zeros(len(nonzero))
    if nonzero.any():
        upper = _upper(*reduced)
        lower[nonzero] = singular_values(float_stack(_flatten(*(x.take(nonzero) for x in reduced))))[:, 0]
    return lower, upper, ~nonzero | ((reduced[0].den is None) & (upper <= tol)), reduced


def tensor_norm_bounds(t: TensorElem) -> tuple[float, float]:
    """Certified (lower, upper) bracket for the projective tensor norm.

    The lower bound is the operator norm of the reduced form's flattening
    (contractive for the projective norm), the upper one that of
    ``tensor_norm_upper``; a zero element gets (0, 0) without flattening.
    """
    return tuple(float(x[0]) for x in _bounds(t._left.take(None), t._right.take(None), 0.0)[:2])


def unitize_diagonal(delta: TensorElem, u: Matrix, one: Matrix) -> tuple[TensorElem, Matrix]:
    """(M, pi(M)) for M = 2*delta - u.delta + (1-u) (x) (1-u).  When u is
    the image of delta under the multiplication map, pi(M) is the
    identity, exactly: pi(M) - 1 = (2 - u)(pi(delta) - u).  The image is
    returned for the caller to check, not checked here."""
    uu, rest = stack_product(np.matmul, delta._actor(u), delta._left, delta.dim), delta._actor(one - u).take(None)
    left = stack_concat([_times(delta._left, 2), uu.apply(np.negative), rest])
    right = stack_concat([delta._right, delta._right, rest])
    return TensorElem(left, right, delta.dim), Matrix.from_stack(_pi(left, right))


@dataclass(frozen=True)
class FiniteDiagonal:
    """A tensor element acting as an exact diagonal for a finite algebra:
    its multiplication image is a unit for the span of ``algebra_basis``
    and it commutes with every basis element, checked on construction
    (within ``DEFAULT_TOL`` per entry on float legs); ValueError otherwise.
    It commutes with a when kron(a, 1) F = F kron(1, a) for its faithful
    flattening F = sum_i kron(u_i, v_i)."""

    diag: TensorElem
    algebra_basis: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "algebra_basis", tuple(self.algebra_basis))
        basis, d, tol = self.algebra_basis, self.diag, DEFAULT_TOL
        unit, flat, one = _pi(d._left, d._right), _flatten(d._left, d._right), _legs([Matrix.identity(d.dim)], d.dim)
        identity, commutes = np.ones((2, len(basis)), dtype=bool)
        for group in filter(None, [[k for k, a in enumerate(basis) if a.is_exact == e] for e in (True, False)]):
            b = _legs([basis[k] for k in group], d.dim)
            identity[group] = products_agree(unit, b, b, tol)[0] & products_agree(b, unit, b, tol)[0]
            right = stack_product(np.matmul, flat, stack_product(np.kron, one, b), d.dim**2)
            commutes[group] = products_agree(stack_product(np.kron, b, one), flat, right, tol)[0]
        for k in range(len(basis)):
            if not identity[k]:
                raise ValueError(f"pi(diag) does not act as identity on basis element {k}")
            if not commutes[k]:
                raise ValueError(f"diag does not commute with basis element {k}")


def expectation_from_diagonal(d: FiniteDiagonal, x: Matrix) -> Matrix:
    """E(x) = sum u_i @ x @ v_i over the diagonal's terms, as one product
    [u_1 x ... u_c x] [v_1; ...; v_c]; DimensionError unless x is dim x dim."""
    return Matrix.from_stack(_pi(_left_times(d.diag, d.diag._actor(x)), d.diag._right))


@dataclass(frozen=True)
class ExpectationReport:
    commutes_with_algebra_dev: float
    fixes_commutant_dev: float
    bimodule_dev: float
    exact: bool
    passed: bool


def certify_expectation(
    d: FiniteDiagonal,
    xs: Sequence[Matrix],
    commutant_sample: Sequence[Matrix],
    tol: float = DEFAULT_TOL,
) -> ExpectationReport:
    """Check the three expectation properties on concrete samples:
    values land in the commutant, E(x) a = a E(x) for the basis elements a;
    commutant elements are fixed, E(u) = u; and u (E(x) v) = E(u x v) for
    commutant u, v.  The samples xs, the commutant sample and the basis are
    each one stack, so each check is one products_agree call over all its
    pairs, and a float matrix in a stack makes it float."""
    t, dim = d.diag, d.diag.dim
    mul = lambda p, q: stack_product(np.matmul, p, q, dim)
    x, u, a = (_legs(list(m), dim) for m in (xs, commutant_sample, d.algebra_basis))
    ex = _pi(_left_times(t, x), t._right)
    # the axes are (x, a) in the first check and (u, v, x) in the third
    ea, ab, us, vs = ex.take(np.s_[:, None]), a.take(None), u.take(np.s_[:, None, None]), u.take(np.s_[None, :, None])
    checks = [
        products_agree(ea, ab, mul(ab, ea), tol),
        products_agree(*_pi_factors(_left_times(t, u), t._right), u, tol),
        products_agree(us, mul(ex.take(np.s_[None, None]), vs),
                       _pi(_left_times(t, mul(mul(us, x.take(np.s_[None, None])), vs)), t._right), tol),
    ]
    passed = all(ok.all() for ok, _ in checks)
    # the deviations in field order: commutes, fixes, bimodule
    return ExpectationReport(*(float(dev.max(initial=0.0)) for _, dev in checks), passed=passed,
                             exact=passed and None not in (t._left.den, t._right.den, x.den, u.den))


@dataclass(frozen=True)
class MbadElementRecord:
    label: str
    in_span: bool
    identity_coeff: complex
    top_index: int
    final_identity_gap: float
    identity_ok: bool
    commutator_upper: float
    commutator_lower: float
    commutator_ok: bool
    element_constant: float
    unitized_upper: float
    unitized_ok: bool


@dataclass(frozen=True)
class MbadReport:
    records: tuple[MbadElementRecord, ...]
    multiplier_constant: float
    projection_sup: float
    unitized_constant: float
    verdict: bool
    images: tuple[Matrix, ...]
    unitized_images: tuple[Matrix, ...]


def _layout(increments: Sequence[TensorElem]) -> list[Stack]:
    """The increments' left and right legs as (increment, term, n, n) stacks, zero-padded to one width >= 1."""
    width = max(1, *(len(inc._left.re) for inc in increments))
    pad = lambda x: np.concatenate([x, np.zeros((width - len(x), *x.shape[1:]), x.dtype)])[None]
    return [stack_concat([getattr(inc, side).apply(pad) for inc in increments]) for side in ("_left", "_right")]


def _commutator_bounds(samples: Stack, left: Stack, right: Stack, tol: float) -> list[tuple]:
    """:func:`_bounds` of [a, D_n] for each n and each a of the stack ``samples``,
    D_n the sum of the first n increments, given as their :func:`_layout`.
    The [a, I_n] of all increments share one reduction: they are the [a, D_n]
    up to the first nonzero one.  Past it, the reduced [a, D_{n-1}] are
    reduced with the terms of [a, I_n], 2 products per term of I_n."""
    count, m = len(samples.re), len(left.re)
    comms = _commutator(samples.take((None, slice(None), None)), *(x.take((slice(None), None)) for x in (left, right)))
    lower, upper, zero, reduced = _bounds(*(x.apply(lambda y: y.reshape(-1, *y.shape[2:])) for x in comms), tol)
    out = []
    for n, used in enumerate(_nonzero(reduced[0]).reshape(m, count, -1)):
        at = slice(n * count, (n + 1) * count)
        out.append((lower[at], upper[at], zero[at], tuple(x.take((at, used.any(axis=0))) for x in reduced)))
        if used.any():
            break
    for n in range(len(out), m):
        comm = _commutator(samples.take((slice(None), None)), left.take(n), right.take(n))
        out.append(_bounds(*(stack_concat([x, y], axis=-3) for x, y in zip(out[-1][3], comm)), tol))
    return out


def _rest_norms(rests) -> np.ndarray:
    """The norms of each rest and of its negation, as a (2, n) array."""
    return singular_values(float_stack(stack_concat([rests, rests.apply(np.negative)])))[:, 0].reshape(2, -1)


def _regrouped_uppers(comms, w, shrinks, images, rests, rest_norms) -> np.ndarray:
    """tensor_norm_upper of R = 2[a,D] - p.[a,D] + w (x) rest - rest (x) w
    for each D_n and sample a, as an (n, a) array, from the reduced [a, D_n],
    w = a_alg (1 - p) with its norms ``shrinks`` (a, n), and rest = 1 - p for
    p = pi(D_n) with its norms ``rest_norms`` from :func:`_rest_norms` (an
    SVD may round -rest apart from rest).  A pair whose
    [a, D_n] is empty, with w and rest exact and neither shifted
    (:func:`_shifts`, each leg's exponent in lowest terms, so a pair's own
    legs decide it, not the batch it is in), has a closed form: 0 if w is a
    multiple of rest (one elimination of the pairs (rest, w)), else
    ||w|| ||rest|| + ||-rest|| ||w||, the reduction's bits for integer w and
    rest of content 1.  The other pairs of each diagonal are reduced as one
    batch."""
    dim, count = len(rests.re[0]), len(w.re)
    unshifted = lambda x: _shifts(x.apply(lambda y: y.reshape(-1, dim, dim))) == 0
    closed = np.array([~_nonzero(c[0]).any(axis=1) for c in comms])
    closed &= w.den is not None and rests.den is not None and (
        unshifted(rests)[:, None] & unshifted(w).reshape(count, -1).T)
    out = np.zeros(closed.shape)
    n, s = np.nonzero(closed)
    if n.size:
        pairs = stack_concat([rests.take((n, None)), w.take((s, n, None))], axis=1)
        (rest, neg), x = rest_norms[:, n], shrinks[s, n]
        out[n, s] = np.where(eliminate(pairs, coordinates=False)[1][:, 1], 0.0, x * rest + neg * x)
    for n in np.flatnonzero(~closed.all(axis=1)):
        s = np.flatnonzero(~closed[n])
        (l, r), ws, rs = (x.take(s) for x in comms[n]), w.take((s, n, None)), rests.take(np.full((len(s), 1), n))
        pl = stack_product(np.matmul, images.take(n), l, dim)
        left = stack_concat([_times(l, 2), pl.apply(np.negative), ws, rs.apply(np.negative)], axis=-3)
        out[n, s] = _upper(*_reduce(left, stack_concat([r, r, rs, ws], axis=-3)))
    return out


# the largest number of entries of one (sample, diagonal) array of certify_mbad
_GROUP_ENTRIES = 2**18


def certify_mbad(
    increments: Sequence[TensorElem],
    chain: Chain,
    sample: Sequence[Matrix],
    tol: float = DEFAULT_TOL,
) -> MbadReport:
    """Certify the approximate-diagonal conditions on a sample.

    ``increments`` are I_1..I_m of the chain's diagonal sequence, read as
    D_n = I_1 + ... + I_n; the telescoping diagonals have I_n = g_n (x) g_n
    for the generators g_n.  Per element: the multiplication images
    eventually act as the identity (exactly, once the index passes the
    element's top chain index), commutators with every diagonal vanish, and
    the unitized diagonals obey the multiplier estimate
    (2 + K) C + 2 (1 + K)^2 over the adjoined-unit norm.  Elements outside
    span(chain + identity) are flagged, not fatal.  The report carries the
    multiplication images of the diagonals and of the unitized diagonals;
    each unitized diagonal is kept only until its image is read.

    The increments are laid out once (:func:`_layout`) and read by every
    consumer: each D_n is a view of its first n rows, the images pi(D_n) are
    prefix sums of the products of its terms, and every group's
    :func:`_commutator_bounds` takes it whole.  One elimination of
    :attr:`Chain.family`, 1 and the samples of one backend (or the ``sample``
    stack), in which no sample is a pivot, gives each sample's span test, top
    index and identity part c of a = a_alg + c 1.  The (sample, diagonal)
    work runs in groups of at most ``_GROUP_ENTRIES`` entries, and no record
    depends on its sample's group or stack.  Past the first nonzero
    commutator, [a, D_n] is reduced from the reduced [a, D_{n-1}]: that form
    has the value of [a, D_n] but not its leg order, so a nonzero
    commutator's upper bound may differ in its last digits from that of the
    reduced raw one; so may the closed-form unitized bound of a commuting
    sample from the reduction's on rational legs.
    """
    increments = list(increments)
    if not increments:
        raise ValueError("no diagonals supplied")
    stacked = isinstance(sample, Stack)
    sample = sample if stacked else list(sample)
    dim = chain.truncation_dim
    ident = Matrix.identity(dim, backend=chain.backend)
    layout = _layout(increments)
    width, (left, right) = layout[0].re.shape[1], (x.apply(lambda y: y.reshape(-1, dim, dim)) for x in layout)
    # pi(D_n): prefix sums of the terms' products u_i v_i on a dtype that holds
    # any of them, then bounded by their entries, which idempotents keep low
    images = stack_product(np.matmul, left, right, dim * len(left.re)).apply(
        lambda x: np.cumsum(x, axis=0)[width - 1::width])
    images = images if images.den is None else Stack.read(images.re, images.im, images.den)
    pis = [Matrix.from_stack(images.take(n)) for n in range(len(increments))]
    rests = stack_difference(ident._s, images)
    rest_norms = _rest_norms(rests)
    k_const = float(singular_values(float_stack(images))[:, 0].max())
    deltas = (TensorElem(*(x.take(slice(n * width)) for x in (left, right)), dim) for n in range(1, len(pis) + 1))
    unitized_images = tuple(unitize_diagonal(d, p, ident)[1] for d, p in zip(deltas, pis))
    one = _legs([ident], dim)
    basis, rows = stack_concat([chain.family, one]), len(chain.idempotents) + 1
    # the record fields per sample, filled in by backend and group
    n = len(sample.re if stacked else sample)
    in_span, identity_ok, commutator_ok, unitized_ok = np.zeros((4, n), dtype=bool)
    gaps, uppers, lowers, unitized, alg_norms = np.zeros((5, n))
    coeffs, tops = np.zeros(n, dtype=complex), np.zeros(n, dtype=int)
    size = max(1, _GROUP_ENTRIES // (len(increments) * dim * dim))
    backends = ([i for i, a in enumerate(sample) if a.is_exact == e] for e in (True, False))
    for ids in filter(None, [list(range(n))] if stacked else backends):
        # coordinates over e_1..e_m, 1: in the span when spanned, the last one
        # is the identity's; a float remainder of x is zero below
        # max(tol, 1e-12) max(1, max|x|)
        samples = _legs(sample if stacked else [sample[i] for i in ids], dim)
        family = stack_concat([basis, samples])
        scales = np.maximum(1.0, np.abs(float_stack(family)).max(axis=(1, 2)))
        _, spanned, coords = eliminate(family.take(None), rows=rows, zero_below=max(tol, 1e-12) * scales)
        scales, in_span[ids] = scales[rows:], spanned[0, rows:]
        coords = coords.take((0, slice(rows, None), slice(rows)))
        nonzero = np.any([x != 0 for x in (coords.re, coords.im) if x is not None], axis=0)
        live = nonzero[:, :-1] if coords.den is not None else np.abs(coords.re[:, :-1]) > 1e-9 * scales[:, None]
        tops[ids] = np.where(live.any(axis=1), live.shape[1] - np.argmax(live[:, ::-1], axis=1), 0)
        corner = coords.take((slice(None), slice(-1, None), None))
        algs = stack_difference(samples, stack_product(np.multiply, corner, one))
        coeffs[ids], alg_norms[ids] = float_stack(corner)[:, 0, 0], singular_values(float_stack(algs))[:, 0]
        for lo in range(0, len(ids), size):
            at, group, scale = slice(lo, lo + size), ids[lo:lo + size], scales[lo:lo + size]
            legs = samples.take(at)
            bounds = _commutator_bounds(legs, *layout, tol)
            lower, upper, zero = (np.array([b[k] for b in bounds]) for k in range(3))
            # a p = p a for every (a, p), and a pi(D_m) = a, the identity part of
            # the last image; float products within max(tol, c max(1, max|a|))
            acts = legs.take((slice(None), None))
            ok, _ = products_agree(acts, images, stack_product(np.matmul, images, acts, dim),
                                   np.maximum(tol, 1e-9 * scale)[:, None])
            final_ok, gaps[group] = products_agree(legs, images.take(-1), legs, np.maximum(tol, 1e-12 * scale))
            # w = a_alg (1 - p) with its norm
            w = stack_product(np.matmul, algs.take((at, None)), rests, dim)
            shrinks = singular_values(float_stack(w).reshape(-1, dim, dim))[:, 0].reshape(len(group), -1)
            # for the unitized M = 2D - p.D + rest (x) rest, with p = pi(D),
            # rest = 1 - p and w = a_alg rest, the regrouped
            # R = 2[a,D] - p.[a,D] + w (x) rest - rest (x) w obeys
            # R - [a,M] = [a,p].D + rest (x) [a,p], where x.D = sum (x u_i) (x) v_i;
            # so R equals [a,M] whenever a p = p a, which is checked, and the
            # multiplier estimate is read off R, built on the reduced [a,D]
            unit = _regrouped_uppers([b[3] for b in bounds], w, shrinks, images, rests, rest_norms)
            refined = (2.0 + k_const) * upper + 2.0 * (1.0 + k_const) * shrinks.T
            refined_ok = (unit <= refined + np.maximum(tol, 1e-9 * np.maximum(1.0, refined))).all(axis=0)
            identity_ok[group] = ~in_span[group] | nonzero[at, -1] | (tops[group] > len(increments)) | final_ok
            uppers[group], lowers[group], unitized[group] = upper.max(axis=0), lower.max(axis=0), unit.max(axis=0)
            commutator_ok[group], unitized_ok[group] = ~in_span[group] | zero.all(axis=0), refined_ok & ok.all(axis=1)

    constants = np.where(alg_norms > 1e-12, uppers / np.maximum(alg_norms, 1e-12), 0.0)
    c_const = float(constants.max(initial=0.0, where=in_span))
    unitized_constant = (2.0 + k_const) * c_const + 2.0 * (1.0 + k_const) ** 2
    # the global multiplier estimate over the adjoined-unit norm, once C is known
    adjoined = alg_norms + np.abs(coeffs)
    with np.errstate(over="ignore"):  # an estimate past float range reads inf; its slack scales with it
        unitized_ok &= unitized <= unitized_constant * adjoined * (1 + 1e-9) + np.maximum(tol, 1e-9 * (1.0 + adjoined))
    unitized_ok |= ~in_span
    # MbadElementRecord's fields after the label, in order
    fields = (in_span, coeffs, tops, gaps, identity_ok, uppers, lowers, commutator_ok, constants, unitized, unitized_ok)
    records = tuple(MbadElementRecord(f"a{i}", *row) for i, row in enumerate(zip(*(x.tolist() for x in fields))))
    verdict = bool((identity_ok & commutator_ok & unitized_ok).all())
    return MbadReport(records=records, multiplier_constant=c_const, projection_sup=k_const,
                      unitized_constant=unitized_constant, verdict=verdict, images=tuple(pis),
                      unitized_images=unitized_images)


def full_matrix_diagonal(n: int) -> FiniteDiagonal:
    """The separating diagonal sum_j e_{j1} (x) e_{1j} of the full n x n
    matrix algebra; the induced expectation maps x to x_11 * identity."""
    eye = np.eye(n, dtype=np.int64)
    units = {(i, j): Matrix.from_stack(Stack(np.outer(eye[i], eye[j]), None, 1, 1)) for i in range(n) for j in range(n)}
    terms = [(units[(j, 0)], units[(0, j)]) for j in range(n)]
    basis = tuple(units[(i, j)] for i in range(n) for j in range(n))
    return FiniteDiagonal(diag=TensorElem.of(terms, dim=n), algebra_basis=basis)


def skew_idempotent_diagonal(t) -> FiniteDiagonal:
    """Diagonal e (x) e + (1-e) (x) (1-e) for the skew idempotent
    e = [[1, t], [0, 0]] over the algebra spanned by the identity and e."""
    e = Matrix.exact([[1, t], [0, 0]])
    one = Matrix.identity(2)
    rest = one - e
    diag = TensorElem.of([(e, e), (rest, rest)])
    return FiniteDiagonal(diag=diag, algebra_basis=(one, e))


@dataclass(frozen=True)
class ExpectationDemo:
    skew: Matrix
    range_projection: Matrix
    expected: Matrix
    matches_exactly: bool
    skew_norm: float
    expectation_norm: float


def expectation_norm_demo(t) -> ExpectationDemo:
    """Apply the expectation of the skew-idempotent diagonal to the
    orthogonal projection onto the idempotent's range; the result is the
    idempotent itself, so the expectation's norm dominates its norm."""
    d = skew_idempotent_diagonal(t)
    e = d.algebra_basis[1]
    p = Matrix.diag([1, 0])
    ep = expectation_from_diagonal(d, p)
    return ExpectationDemo(
        skew=e,
        range_projection=p,
        expected=ep,
        matches_exactly=ep.equals(e),
        skew_norm=op_norm(e),
        expectation_norm=op_norm(ep),
    )
