"""Rank-one idempotents on l2({alpha, omega, 1, 2, ...}) and the induced
embedding of summable sequences into a product of matrix blocks.

For each n the vectors x_n = e_omega + e_alpha + e_n and
y_n = e_omega - e_alpha + e_n give a rank-one idempotent E_n = y_n x_n*
of norm 3, with x_i* y_j = delta_ij.  A finitely supported sequence a
embeds as the family of blocks sum_{j in F} a_j E_j over finite index
sets F, and the block sup norm is pinned between ||a||_1 / pi and
3 ||a||_1; the lower bound rests on maximizing |sum_{j in F} a_j| over
subsets, solved exactly by a half-plane sweep.  On the coordinates
(alpha, omega, F), |F| = k, the block is Y diag(a_F) X^T for the k
columns y_j and x_j, j in F.  Blocks are filled from that closed form,
on integer numerators over one shared denominator, one stacked
(..., m, k + 2, k + 2) array per size k.

Multiplicativity: with B_i the blocks of the unit coefficient vectors
(``_fill`` of the k x k identity), every block of size k is
sum_i a_{F_i} B_i, so by bilinearity phi_F(a) phi_F(b) =
sum_{i,j} a_{F_i} b_{F_j} B_i B_j, which is phi_F(ab) for every a and b
once B_i B_j = delta_ij B_i: one exact products_agree call per size.

Spectra: y_i* y_j = x_i* x_j = 2 + delta_ij, so Y^T Y = X^T X = I + 2J
(J all ones, k x k), whose positive square root is S_k = I + c_k J with
(1 + c_k k)**2 = 1 + 2k, as J has eigenvalues k and 0.  Then Y = Q S_k
and X = R S_k with Q, R of orthonormal columns, and
Y D X^T = Q (S_k D S_k) R^T has the singular values of S_k D S_k and two
zeros: one stacked k x k SVD per size gives every block's spectrum, and
the sup and trace norms are one pass over those spectra.  The
brute-force subset search builds subset sums by doubling, members added
in index order, so they round as the sweep's do.
"""
from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .draws import Pcg64
from .matrices import (
    DEFAULT_TOL,
    CertificationError,
    Stack,
    float_stack,
    kernel_dtype,
    products_agree,
    read_scalar,
    singular_values,
    stack_product,
)

__all__ = [
    "RankOneFamily",
    "certify_E_family",
    "EFamilyReport",
    "SubsetFamily",
    "EmbeddedElement",
    "phi",
    "phi_sup_norm",
    "best_subset_sum",
    "brute_force_best_subset",
    "unit_circle_sweep_ratios",
    "TraceWeights",
    "make_trace",
    "l1_trace_norm",
    "certify_embedding_bounds",
    "EmbeddingReport",
]

_ALPHA = 0
_OMEGA = 1


@dataclass(frozen=True, eq=False)
class RankOneFamily:
    """The idempotents E_n = y_n x_n* for n = 1..n_max on l2 of the
    (n_max + 2) coordinates (alpha, omega, 1, ..., n_max), kept as their
    integer factors: column n - 1 of ``x`` and of ``y``, arrays of shape
    (n_max + 2, n_max), holds x_n and y_n."""

    n_max: int
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, n_max: int) -> "RankOneFamily":
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        ones, eye = np.ones((2, n_max), dtype=np.int64), np.eye(n_max, dtype=np.int64)
        return cls(n_max, np.vstack([ones, eye]), np.vstack([-ones[:1], ones[:1], eye]))

    @property
    def ambient_dim(self) -> int:
        return self.n_max + 2


@dataclass(frozen=True)
class EFamilyReport:
    n_max: int
    max_norm_error: float
    norms_ok: bool
    idempotent: bool
    pairwise_zero: bool
    range_contained: bool
    witness_trials: int
    witness_exact: bool
    witness_dominated: bool
    passed: bool


def certify_E_family(
    fam: RankOneFamily,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> EFamilyReport:
    """Certify the family from its factors: each norm ||x_n|| ||y_n||
    equals 3, from ||x_n||^2 ||y_n||^2 = 9 in integers; since
    E_i E_j = (x_i* y_j) y_i x_j*, squares and cross products are exact
    when X* Y is the identity; ranges stay inside
    span(e_alpha, e_omega, e_n) when the factor columns are supported
    there; and the omega diagonal entry of any combination
    sum c_n E_n = Y diag(c) X* equals the coefficient sum (exactly, via
    seeded trials), which the operator norm dominates.  The trials'
    coefficients are read as integers over one power of 2, so the
    witnesses of a chunk of trials are one batched integer product, and
    their norms one stacked SVD.  Factor columns are taken nonzero: a
    zero column fails idempotency and the norm."""
    n, dim = fam.n_max, fam.ambient_dim
    big = max(1, int(np.abs(fam.x).max()), int(np.abs(fam.y).max()))
    dtype = kernel_dtype((dim * big * big) ** 2)  # bounds every entry of X* Y and every norm product
    x, y = fam.x.astype(dtype), fam.y.astype(dtype)
    squares = (x * x).sum(axis=0) * (y * y).sum(axis=0)
    max_norm_error = float(np.abs(np.sqrt(squares.astype(float)) - 3.0).max())
    gram = x.T @ y
    allowed = np.vstack([np.ones((2, n), dtype=bool), np.eye(n, dtype=bool)])  # rows alpha, omega, 1..n_max
    # the witnesses Y diag(c) X* of a chunk of trials at once, on integer numerators over 2**s
    c, scale = _dyadic(Pcg64(seed).uniform(-1.0, 1.0, (trials, 2, n)))
    sums = c.astype(kernel_dtype(n * scale)).sum(axis=2)
    totals = Stack(sums[:, 0], sums[:, 1], scale, n * scale)
    exact, norms, step = np.ones(trials, dtype=bool), np.zeros(trials), max(1, _CHUNK_ENTRIES // (dim * dim))
    for at in (slice(lo, lo + step) for lo in range(0, trials, step)):
        coeffs = Stack(c[at, 0, None], c[at, 1, None], scale, scale)  # |c| <= 1
        yc = stack_product(np.multiply, Stack(fam.y, None, 1, big), coeffs)
        w = stack_product(np.matmul, yc, Stack(fam.x.T, None, 1, big), n)
        exact[at] = (w.re[:, _OMEGA, _OMEGA] == sums[at, 0]) & (w.im[:, _OMEGA, _OMEGA] == sums[at, 1])
        norms[at] = singular_values(float_stack(w))[:, 0]
    checks = dict(
        norms_ok=bool((squares == 9).all()),
        idempotent=bool((gram.diagonal() == 1).all()),
        pairwise_zero=not gram[~np.eye(n, dtype=bool)].any(),
        range_contained=not (((x != 0) | (y != 0)) & ~allowed).any(),
        witness_exact=bool(exact.all()),
        witness_dominated=not (np.abs(float_stack(totals)) > norms + tol).any(),
    )
    return EFamilyReport(
        n_max=n, max_norm_error=max_norm_error, witness_trials=trials, passed=all(checks.values()), **checks
    )


def _dyadic(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(N, 2**s) with values = N / 2**s exactly for the least s >= 0, for
    floats of modulus at most 1: N on int64 when s < 63, else Python ints."""
    mant, exp = np.frexp(values)
    ints = (mant * 2.0**53).astype(np.int64)  # values = ints 2**(exp - 53)
    zeros = np.frexp((ints & -ints).astype(float))[1] - 1  # trailing zero bits of ints
    s = int(np.where(ints != 0, 53 - exp - zeros, 0).max(initial=0))
    if s < 63:
        return np.ldexp(values, s).astype(np.int64), 2**s
    return np.vectorize(lambda v: int(Fraction(v) * 2**s), otypes=[object])(values), 2**s


@dataclass(frozen=True)
class SubsetFamily:
    """Canonical enumeration of finite nonempty index sets, ordered by
    cardinality then lexicographically, capped in count and cardinality."""

    n_max: int
    s_max: int
    f_cap: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        subsets = tuple(tuple(sorted(set(f))) for f in self.subsets)
        if len(set(subsets)) != len(subsets):
            raise ValueError("duplicate subsets")
        for f in subsets:
            self._check(f)
        if not subsets:
            raise ValueError("family must contain at least one subset")
        object.__setattr__(self, "subsets", subsets)

    def _check(self, f):
        if not f:
            raise ValueError("subsets must be nonempty")
        if f[0] < 1 or f[-1] > self.n_max:
            raise ValueError(f"subset {f} escapes 1..{self.n_max}")

    @classmethod
    def enumerate(cls, n_max: int, f_cap: int = 512, s_max: int = 8) -> "SubsetFamily":
        by_size = (combinations(range(1, n_max + 1), size) for size in range(1, min(s_max, n_max) + 1))
        subsets = tuple(islice(chain.from_iterable(by_size), max(f_cap, 1)))  # f_cap < 1 keeps the first
        return cls(n_max=n_max, s_max=s_max, f_cap=f_cap, subsets=subsets)

    def augmented(self, extras: Sequence[Sequence[int]]) -> "SubsetFamily":
        """Append any new subsets at the end, preserving order; only they
        are validated, and the family itself comes back when there are
        none."""
        known = set(self.subsets)
        new = [f for f in dict.fromkeys(tuple(sorted(set(f))) for f in extras) if f not in known]
        for f in new:
            self._check(f)
        if not new:
            return self
        out = object.__new__(type(self))  # the old subsets are valid already
        out.__dict__.update(n_max=self.n_max, s_max=self.s_max, f_cap=self.f_cap, subsets=self.subsets + tuple(new))
        return out

    @cached_property
    def _by_size(self) -> tuple:
        """Per subset size, in order of first appearance: the positions of
        the subsets of that size and their 0-based indices as one
        (m, size) array; built once per family."""
        by_size = defaultdict(list)
        for pos, f in enumerate(self.subsets):
            by_size[len(f)].append(pos)
        return tuple((tuple(p), np.array([self.subsets[i] for i in p]) - 1) for p in by_size.values())

    def __len__(self):
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)


@dataclass(frozen=True, eq=False)
class EmbeddedElement:
    """Per subset size k, the blocks of every subset of that size as one
    (m, k + 2, k + 2) stack: the block for F is sum_{j in F} a_j E_j
    restricted to the coordinates (alpha, omega, F).

    ``stacks`` holds one (positions, stack) pair per size, where positions
    are the indices of the stacked subsets in the family and the
    :class:`opalg.matrices.Stack` holds their blocks: integer numerators
    over the element's shared denominator."""

    family: SubsetFamily
    stacks: tuple = field(repr=False)

    @cached_property
    def _spectra(self) -> list[tuple]:
        """Per stack, its positions and blocks' singular values (m, k + 2) by
        :func:`_block_spectra` of the coefficients a_F read off the block
        diagonal; :func:`float_stack` rounds each once."""
        diag = lambda s, d: float_stack(s.apply(lambda x: x[..., d, d]))
        return [(np.array(pos), _block_spectra(diag(s, np.arange(2, s.re.shape[-1])))) for pos, s in self.stacks]


def _sup(spectra) -> np.ndarray:
    """The largest first singular value per leading index, for spectra
    (positions, (..., m, k + 2) array) of the blocks of a family."""
    return np.max([s[..., 0].max(axis=-1, initial=0.0) for _, s in spectra], axis=0)


def _trace(spectra, weights) -> np.ndarray:
    """sum over F of w_F / (|F| + 2) times the Schatten-1 norm (a row sum) of
    F's block per leading index, for float weights (..., family size) and
    spectra as :func:`_sup` reads them, added in family order by one
    sequential cumsum, as a loop over the blocks would."""
    terms = np.zeros(np.broadcast_shapes(weights.shape, spectra[0][1].shape[:-2] + weights.shape[-1:]))
    for pos, s in spectra:
        terms[..., pos] += weights[..., pos] / s.shape[-1] * s.sum(axis=-1)
    return np.cumsum(terms, axis=-1)[..., -1]


def _fill(a):
    """The closed-form blocks of subsets of one size k from their
    coefficients a_F, an array (..., k) in index order, as one array
    (..., k + 2, k + 2) over the dtype of ``a``: with s_F the sum of a_j
    over F, row alpha is (-s_F, -s_F, -a_F), row omega is (s_F, s_F, a_F),
    and the row of j in F holds a_j in the columns alpha, omega and j."""
    k = a.shape[-1]
    s = np.cumsum(a, axis=-1)[..., -1:]  # s_F, summed in index order
    out = np.zeros((*a.shape[:-1], k + 2, k + 2), dtype=a.dtype)
    out[..., _ALPHA, :2], out[..., _ALPHA, 2:] = -s, -a
    out[..., _OMEGA, :2], out[..., _OMEGA, 2:] = s, a
    rows = np.arange(2, k + 2)
    out[..., rows, _ALPHA] = out[..., rows, _OMEGA] = out[..., rows, rows] = a
    out.flags.writeable = False
    return out


def _block_spectra(a) -> np.ndarray:
    """The singular values (..., k + 2) of the blocks ``_fill(a)`` for complex
    coefficients a (..., k): those of S_k diag(a) S_k from one stacked SVD,
    then two zeros (see the module docstring)."""
    k = a.shape[-1]
    root = np.eye(k) + 2.0 / (math.sqrt(1.0 + 2.0 * k) + 1.0)  # S_k; c_k written without cancellation
    sv = singular_values((root * a.reshape(-1, 1, k)) @ root)
    return np.pad(sv, ((0, 0), (0, 2))).reshape(*a.shape[:-1], k + 2)


def _embedded(family, coeffs: Stack) -> EmbeddedElement:
    """The element with the coefficients of the 1-d stack ``coeffs``, integer
    numerators over its denominator, at most n_max of them, missing ones
    zero, filled by :func:`_fill`: on int64 when every numerator times n_max
    (which bounds every s_F) fits it, and Python integers otherwise.  The
    missing ones are zeros of the numerators' dtype: np.pad would put an
    int64 zero among Python integers, and a sum with one past int64
    overflows."""
    n = family.n_max
    dtype = kernel_dtype(coeffs.bound * n)
    coeffs = coeffs.apply(lambda x: np.concatenate([x, np.zeros(n - len(x), x.dtype)]).astype(dtype), coeffs.bound * n)
    stacks = tuple((pos, coeffs.apply(lambda x: _fill(x[idx]))) for pos, idx in family._by_size)
    return EmbeddedElement(family=family, stacks=stacks)


def phi(a: Sequence, subsets: SubsetFamily) -> EmbeddedElement:
    """Embed the sequence a as its per-subset blocks.  Each coefficient is
    read by :func:`opalg.matrices.read_scalar`, floats and complex numbers
    at their exact binary value, so the blocks are integer numerators over
    the coefficients' least common denominator (:meth:`Stack.of`)."""
    read = [read_scalar(v) for v in a]
    nonzero = [any(pair) for pair in read]
    if any(nonzero[subsets.n_max:]):
        raise ValueError(f"support index {nonzero.index(True, subsets.n_max) + 1} outside 1..{subsets.n_max}")
    return _embedded(subsets, Stack.of(read[: subsets.n_max]))


def phi_sup_norm(e: EmbeddedElement) -> float:
    """Largest operator norm over the enumerated blocks."""
    if not e.stacks:
        raise ValueError("embedded element has no blocks")
    return float(_sup(e._spectra))


def _support(a):
    """The nonzero coefficients of a as (index, complex) pairs."""
    return [(j, z) for j, z in enumerate(map(complex, a), start=1) if z != 0]


def best_subset_sum(a: Sequence, cross_check: bool | None = None) -> tuple[tuple[int, ...], float]:
    """Maximize |sum_{j in F} a_j| over nonempty index sets F.

    Candidates are the open half-plane sets {j : Re(a_j e^{-i t}) > 0}
    sampled between consecutive critical angles; the winner is optimal
    over all subsets.  For supports of at most 16 a full enumeration
    cross-checks optimality (on by default there, off above)."""
    support = _support(a)
    if not support:
        raise ValueError("sequence has empty support")
    two_pi = 2.0 * math.pi
    args = [math.atan2(z.imag, z.real) for _, z in support]
    angles = sorted({(arg + turn) % two_pi for arg in args for turn in (math.pi / 2.0, -math.pi / 2.0)})
    midpoints = [((lo + hi) / 2.0) % two_pi for lo, hi in zip(angles, angles[1:] + [angles[0] + two_pi])]
    z = np.array([v for _, v in support])
    best_set: tuple[int, ...] = ()
    best_val = -1.0
    # midpoints in blocks of about 2**16 memberships; each member sum is
    # one sequential cumsum in index order, its modulus np.hypot (which
    # rounds as abs() does; np.abs of a complex array need not), and a
    # strict > keeps the first maximum, as a loop over the midpoints would
    step = max(1, 2**16 // len(support))
    for lo in range(0, len(midpoints), step):
        cos_sin = np.array([(math.cos(t), math.sin(t)) for t in midpoints[lo : lo + step]])
        inside = z.real * cos_sin[:, :1] + z.imag * cos_sin[:, 1:] > 0.0
        sums = np.cumsum(np.where(inside, z, 0), axis=1)[:, -1]
        values = np.where(inside.any(axis=1), np.hypot(sums.real, sums.imag), -1.0)
        k = int(np.argmax(values))
        if values[k] > best_val:
            best_val, best_set = float(values[k]), tuple(j for (j, _), m in zip(support, inside[k]) if m)
    if cross_check is None:
        cross_check = len(support) <= 16
    if cross_check:
        _, brute_val = brute_force_best_subset(a)
        if best_val < brute_val - 1e-9 * max(1.0, brute_val):
            raise CertificationError(
                f"half-plane sweep is suboptimal: {best_val} < brute force {brute_val}"
            )
    return best_set, best_val


def brute_force_best_subset(a: Sequence) -> tuple[tuple[int, ...], float]:
    """Exhaustive maximizer of |sum_{j in F} a_j| over the support."""
    support = _support(a)
    if not support:
        raise ValueError("sequence has empty support")
    n = len(support)
    if n > 22:
        raise ValueError(f"support of size {n} is too large to enumerate")
    z = np.array([v for _, v in support])
    low, sums = min(n, 12), np.zeros(1, dtype=complex)
    for v in z[:low]:  # by doubling: bit i of a mask is member i
        sums = np.concatenate([sums, sums + v])
    best, mask = -1.0, 0
    # blocks of 2**low masks: the low sums with the block's higher members
    # added in index order, so every sum rounds as the sweep's cumsum does; a
    # strict > keeps the first maximum, as one argmax over all masks would,
    # and the empty set's 0 never wins over the nonzero first member
    for high in range(1 << (n - low)):
        block = sums
        for v in z[low:][(high >> np.arange(n - low)) & 1 == 1]:
            block = block + v
        values = np.hypot(block.real, block.imag)
        k = int(np.argmax(values))
        if values[k] > best:
            best, mask = float(values[k]), high << low | k
    return tuple(support[i][0] for i in range(n) if (mask >> i) & 1), best


def unit_circle_sweep_ratios(sizes: Sequence[int]) -> list[tuple[int, float, float]]:
    """For a = the n-th roots of unity, the sweep value and its ratio to
    ||a||_1 = n; the ratio decreases toward 1/pi."""
    values = [(n, best_subset_sum([cmath.exp(2j * math.pi * j / n) for j in range(n)])[1]) for n in sizes]
    return [(n, val, val / n) for n, val in values]


@dataclass(frozen=True)
class TraceWeights:
    """Strictly positive exact weights numerators[i] / den, one per subset
    of a family in its order, summing to one; they depend only on the
    family's size."""

    numerators: tuple[int, ...]
    den: int
    scheme: str

    def __post_init__(self):
        if self.den <= 0 or any(n <= 0 for n in self.numerators):
            raise ValueError("weights must be strictly positive")
        if sum(self.numerators) != self.den:
            raise ValueError("weights must sum to 1")

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """Each weight rounded to float, converted once: int / int rounds
        correctly, as float(Fraction) does, in whatever terms it is written."""
        return tuple(n / self.den for n in self.numerators)


def make_trace(subsets: SubsetFamily, scheme: str = "geometric") -> TraceWeights:
    """Geometric weights 2^-k over the canonical order, normalized to
    2^(N-k) / (2^N - 1) for N subsets, or uniform ones; both exact, so no
    weight underflows."""
    count = len(subsets.subsets)
    if scheme == "geometric":
        return TraceWeights(tuple(1 << (count - k) for k in range(1, count + 1)), (1 << count) - 1, scheme)
    if scheme == "uniform":
        return TraceWeights((1,) * count, count, scheme)
    raise ValueError(f"unknown trace scheme {scheme!r}")


def l1_trace_norm(e: EmbeddedElement, w: TraceWeights) -> float:
    """Trace-weighted norm: sum over F of weight / (|F| + 2) times the
    Schatten-1 norm of the block, with each weight rounded to float."""
    if len(w.numerators) != len(e.family):
        raise ValueError(f"{len(w.numerators)} trace weights for a subset family of {len(e.family)} blocks")
    return float(_trace(e._spectra, np.array(w.floats)))


@dataclass(frozen=True)
class EmbeddingReport:
    n_max: int
    f_cap: int
    s_max: int
    trials: int
    seed: int
    min_sup_ratio: float
    max_sup_ratio: float
    single_index_ratio: float
    roots_ratio: float
    max_trace_to_inf: float
    lower_ok: bool
    upper_ok: bool
    trace_ok: bool
    trace_le_sup_ok: bool
    mult_sizes: tuple[int, ...]
    mult_exact: bool
    passed: bool
    rows: tuple[tuple, ...]

    def csv_rows(self) -> list[list]:
        out = [["trial", "l1_norm", "sup_norm", "ratio", "trace_norm"]]
        out += [list(r) for r in self.rows]
        return out


def _basis_is_multiplicative(sizes) -> bool:
    """Whether the basis blocks B = ``_fill(I_k)`` satisfy B_i B_j = delta_ij B_i
    exactly for each subset size k in ``sizes``, which proves
    phi_F(a) phi_F(b) = phi_F(ab) for all a and b (see the module docstring)."""
    for k in sizes:
        basis = Stack.read(_fill(np.eye(k, dtype=np.int64)))
        target = basis.apply(lambda x: x[:, None] * np.eye(k, dtype=x.dtype)[..., None, None])
        if not products_agree(basis.take(np.s_[:, None]), basis.take(None), target)[0].all():
            return False
    return True


# the embed stage takes its items in chunks of at most this many base-family block
# entries, and certify_E_family its witnesses in chunks of at most this many entries
_CHUNK_ENTRIES = 2**17


def _item_spectra(base: SubsetFamily, values, extra) -> list[tuple]:
    """Spectra as :func:`_sup` reads them of the blocks of items, the rows of
    the complex array ``values``, over ``base`` and the item's subset in
    ``extra`` (None when base has it), put after base: per size k, one
    :func:`_block_spectra`, zero where no subset is appended."""
    stacks, count, out = {idx.shape[1]: (pos, idx) for pos, idx in base._by_size}, len(values), []
    for k in stacks.keys() | {len(f) for f in extra if f}:
        pos, idx = stacks.get(k, ((), np.zeros((0, k), dtype=int)))
        rows = np.array([r for r, f in enumerate(extra) if f and len(f) == k], dtype=int)
        own = np.array([extra[r] for r in rows], dtype=int).reshape(-1, k) - 1
        sv = _block_spectra(np.concatenate([values[:, idx].reshape(-1, k), values[rows[:, None], own]]))
        appended = np.zeros((count, 1, k + 2))
        appended[rows, 0] = sv[count * len(pos):]
        out += [(np.array(pos, dtype=int), sv[:count * len(pos)].reshape(count, len(pos), k + 2)),
                (np.array([len(base)]), appended)]
    return out


def certify_embedding_bounds(
    n_max: int = 10,
    f_cap: int = 512,
    s_max: int = 8,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    csv_scheme: str = "geometric",
) -> EmbeddingReport:
    """Randomized two-sided certification of the embedding norms.

    Per seeded trial: ||a||_1 / pi <= sup-block norm <= 3 ||a||_1, with
    the enumeration augmented by the sweep-optimal subset so the lower
    bound is witnessed inside the cap; the trace-weighted norm stays
    below 3 ||a||_inf for both weight schemes and below the sup norm.
    Deterministic side trials witness the tight upper ratio (a single
    unit coefficient) and a near-1/pi lower ratio (roots of unity), and
    the basis products of each subset size in the base family check
    blockwise multiplicativity exactly (:func:`_basis_is_multiplicative`).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base = SubsetFamily.enumerate(n_max, f_cap=f_cap, s_max=s_max)
    rng = Pcg64(seed)
    inv_pi, slack = 1.0 / math.pi, 1e-12

    named = [[1.0] + [0.0] * (n_max - 1), [cmath.exp(2j * math.pi * j / n_max) for j in range(n_max)]]
    # the single-index and unit-circle sequences, then the random trials
    items = named + [list(rng.uniform(-1.0, 1.0, n_max) + 1j * rng.uniform(-1.0, 1.0, n_max)) for _ in range(trials)]
    sweeps = [best_subset_sum(a) for a in items]
    known = set(base.subsets)
    extra = [None if f in known else f for f, _ in sweeps]
    # float trace weights per scheme over base, padded by a zero, and over
    # base with one subset appended, each item reading those of its family
    fams, schemes = (base, base.augmented([f for f in extra if f][:1])), ("geometric", "uniform")
    weights = np.array([[np.pad(make_trace(fam, scheme).floats, (0, len(base) + 1 - len(fam))) for fam in fams]
                        for scheme in schemes])
    grown = np.array([f is not None for f in extra], dtype=int)
    sup, trace = [], []
    step = max(1, _CHUNK_ENTRIES // sum(idx.shape[0] * (idx.shape[1] + 2) ** 2 for _, idx in base._by_size))
    for lo in range(0, len(items), step):
        spectra = _item_spectra(base, np.array(items[lo:lo + step], dtype=complex), extra[lo:lo + step])
        sup.append(_sup(spectra))
        trace.append(_trace(spectra, weights[:, grown[lo:lo + step]]))
    sup, trace = np.concatenate(sup), np.concatenate(trace, axis=1)
    l1, linf = (np.array([f(abs(complex(v)) for v in a) for a in items]) for f in (sum, max))
    sweep, ratio = np.array([v for _, v in sweeps]), sup / l1
    lower_ok = bool(((sweep >= l1 * inv_pi * (1.0 - slack)) & (sup >= sweep * (1.0 - slack))).all())
    upper_ok = bool((sup <= 3.0 * l1 * (1.0 + slack)).all())
    trace_ok, trace_le_sup_ok = (bool((trace <= x + tol).all()) for x in (3.0 * linf, sup))
    row_trace = dict(zip(schemes, trace)).get(csv_scheme, np.zeros(len(items)))
    rows = tuple((i, *x) for i, x in enumerate(zip(*(y[2:].tolist() for y in (l1, sup, ratio, row_trace)))))
    sizes = tuple(sorted(idx.shape[1] for _, idx in base._by_size))
    mult_exact = _basis_is_multiplicative(sizes)
    return EmbeddingReport(
        n_max=n_max, f_cap=f_cap, s_max=s_max, trials=trials, seed=seed,
        min_sup_ratio=float(ratio.min()), max_sup_ratio=float(ratio.max()),
        single_index_ratio=float(ratio[0]), roots_ratio=float(ratio[1]),
        max_trace_to_inf=float((trace / linf).max(initial=0.0)),
        lower_ok=lower_ok, upper_ok=upper_ok, trace_ok=trace_ok, trace_le_sup_ok=trace_le_sup_ok,
        mult_sizes=sizes, mult_exact=mult_exact,
        passed=lower_ok and upper_ok and trace_ok and trace_le_sup_ok and mult_exact, rows=rows,
    )
